package wire

// This file holds the pending argument list: a []any read as far as its
// count, whose elements are decoded where they are bound.

import "fmt"

// keepArgs is the longest list, in elements, whose arrays a PendingList
// keeps for the next list it reads; a longer one (a big aggregate batch)
// goes to the GC with Reset.
const keepArgs = 64

// PendingList is a []any whose elements are not decoded yet: a remote
// call's argument list as the server holds it. Decoder.AnySlice reads the
// list's count into it and returns a []any of *Pending, one per element,
// which costs no allocation: the list keeps both the Pending values and the
// array. An element is decoded where it is bound, straight into the
// variable that takes it (Pending.Into), or boxed (Pending.Value), so a
// value bound to its parameter's type is never boxed.
//
// Elements bind in any order and as often as asked, and each gives the
// value or the error that Decoder.Value gives it reading the list in
// order. Bound in order, an element is read where the one before it ended;
// bound out of order, the list is read again from its first element, since
// a struct's names may refer back to names an earlier element spelled out.
// The end of the input is checked with the last element: a byte after it is
// that element's error.
//
// The list reads its input in place, as the Decoder it was read from does:
// the input must stay untouched until Reset, and Borrowed reports whether a
// []byte decoded so far aliases it. One goroutine at a time may use a list.
type PendingList struct {
	d     Decoder // over the list's input, at element next
	start int     // the offset of element 0
	base  int     // the names read before element 0, which a re-read keeps
	next  int
	elems []Pending
	args  []any // args[i] is &elems[i] until DecodeArgs replaces it
	last  bool  // the input ends with the list: checked after its last element
	// sub is the list Pending.List reads an element into, kept for the
	// next; subOf is 1 + the element it holds, 0 for none.
	sub   *PendingList
	subOf int
}

// Pending is one element of a PendingList, not decoded yet.
type Pending struct {
	l *PendingList
	i int
}

// AnySlice reads a []any, the mirror of Encoder.AnySlice. With a nil l the
// elements are decoded now, boxed, as Value decodes them: the decode a list
// defers, which FuzzPendingArgs holds every list to. With a list, only
// the count is read: the elements are left pending in l, which takes the
// rest of d's input, and the []any returned is l's. An empty list leaves d
// after its count. A value that is not a []any, or a count the input cannot
// hold, is d's error either way.
func (d *Decoder) AnySlice(l *PendingList) []any {
	if l == nil {
		if !d.atList() {
			return nil
		}
		args, _ := d.Value().([]any)
		return args
	}
	n := d.listCount()
	if d.err != nil {
		return nil
	}
	if n == 0 {
		return []any{}
	}
	l.d.Reset(d.d.data)
	l.d.d.opts, l.d.d.pos = d.d.opts, d.d.pos
	l.base, l.last = 0, true
	d.d.pos = len(d.d.data)
	return l.open(n)
}

// atList reports whether d can read a []any: at the end of its input the
// read fails later, and at a value of another type d fails now.
func (d *Decoder) atList() bool {
	if d.err == nil && d.d.pos < len(d.d.data) && d.d.data[d.d.pos] != tAnySlice {
		d.fail(fmt.Errorf("wire/binfmt: tag 0x%02x at offset %d, want a list", d.d.data[d.d.pos], d.d.pos))
	}
	return d.err == nil
}

// listCount reads the tag and count of the []any d is at: a value of
// another type, or a count the input cannot hold, is d's error.
func (d *Decoder) listCount() int {
	if !d.atList() {
		return 0
	}
	d.RawByte()
	n := d.RawUvarint()
	if d.err == nil {
		d.fail(d.d.checkCount(n, 1))
	}
	return int(n)
}

// open makes l's n elements pending, the first at its decoder's position.
func (l *PendingList) open(n int) []any {
	if cap(l.args) < n {
		l.elems, l.args = make([]Pending, n), make([]any, n)
	}
	l.elems, l.args = l.elems[:n], l.args[:n]
	for i := range l.elems {
		l.elems[i] = Pending{l: l, i: i}
		l.args[i] = &l.elems[i]
	}
	l.start, l.next, l.subOf = l.d.d.pos, 0, 0
	return l.args
}

// Into decodes the element into *dst when Decoder.ValueInto can, and
// reports whether it read the element, into *dst or as err. False means the
// element's tag is not the one dst's type reads: nothing was read, and the
// caller binds the element with Value and the conversion rules.
func (p *Pending) Into(dst any) (bool, error) {
	l := p.l
	if err := l.at(p.i); err != nil {
		return true, err
	}
	if !l.d.ValueInto(dst) {
		return false, nil
	}
	return true, l.done(p.i)
}

// Value decodes the element, boxed.
func (p *Pending) Value() (any, error) {
	l := p.l
	if err := l.at(p.i); err != nil {
		return nil, err
	}
	v := l.d.Value()
	if err := l.done(p.i); err != nil {
		return nil, err
	}
	return v, nil
}

// List reads the element, a []any, as Decoder.AnySlice reads a list into
// a PendingList: its elements are left pending, bound where they are used,
// as a batch's argument lists are. The list they are held in is the one the
// element's list keeps for its elements' lists, valid until the next List
// or Reset. Read in order, a list of lists is read once: the next element
// starts where this one's list ended. An element that is not a list is
// List's error, and Value still reads it.
func (p *Pending) List() ([]any, error) {
	l := p.l
	if err := l.at(p.i); err != nil {
		return nil, err
	}
	if l.sub == nil {
		l.sub = new(PendingList)
	}
	s := l.sub
	l.d.d.borrowed = l.Borrowed()
	s.d = Decoder{d: l.d.d}
	n := s.d.listCount()
	if s.d.err != nil {
		return nil, s.d.err
	}
	s.base, s.last = len(s.d.d.idents), l.last && p.i == len(l.elems)-1
	if n == 0 && s.last && s.d.Rest() != 0 {
		return nil, fmt.Errorf("wire/binfmt: %d trailing bytes after the list", s.d.Rest())
	}
	l.subOf = p.i + 1
	return s.open(n), nil
}

// at puts the list's decoder at element i: where element i-1 ended when
// that was the last one read, and otherwise past the elements before i,
// read again from element 0 when i is not ahead of the last one read.
func (l *PendingList) at(i int) error {
	if i < l.next {
		clear(l.d.d.idents[l.base:])
		l.d.d.idents = l.d.d.idents[:l.base]
		l.d.d.pos, l.d.err, l.next, l.subOf = l.start, nil, 0, 0
	}
	for ; l.next < i && l.d.err == nil; l.next++ {
		if l.next+1 == l.subOf {
			l.skipSub()
		} else {
			l.d.Value()
		}
	}
	return l.d.err
}

// skipSub moves the list past the element List read into sub: sub reads
// what of it is still pending, and the list goes on where it ended, with
// the names it read.
func (l *PendingList) skipSub() {
	s := l.sub
	s.at(len(s.elems)) //nolint:errcheck // the error is s.d's, taken below
	l.d.d.pos, l.d.d.idents, l.d.err, l.subOf = s.d.d.pos, s.d.d.idents, s.d.err, 0
}

// done ends the read of element i, checking the end of the input after the
// last element.
func (l *PendingList) done(i int) error {
	l.next = i + 1
	if rest := l.d.Rest(); l.d.err == nil && l.last && l.next == len(l.elems) && rest != 0 {
		l.d.fail(fmt.Errorf("wire/binfmt: %d trailing bytes after the list", rest))
	}
	return l.d.err
}

// Borrowed reports whether a []byte decoded from the list, or from its
// elements' lists, since it was read aliases its input (see
// Decoder.SetBorrow).
func (l *PendingList) Borrowed() bool { return l.d.Borrowed() || l.sub != nil && l.sub.Borrowed() }

// Reset forgets the list and its input. The arrays stay for the next list
// unless they are longer than keepArgs.
func (l *PendingList) Reset() {
	l.d.Reset(nil)
	clear(l.args[:cap(l.args)])
	if cap(l.args) > keepArgs {
		l.elems, l.args = nil, nil
	}
	l.elems, l.args, l.subOf = l.elems[:0], l.args[:0], 0
	if l.sub != nil {
		l.sub.Reset()
	}
}

// DecodeArgs replaces every pending element of args with its value, boxed as
// Value decodes it, in place, and returns the first error. It is for a
// consumer that needs a list's values themselves rather than binding them
// one at a time: reflective dispatch. Elements that are not pending are
// left alone.
func DecodeArgs(args []any) error {
	for i, a := range args {
		if p, ok := a.(*Pending); ok {
			v, err := p.Value()
			if err != nil {
				return err
			}
			args[i] = v
		}
	}
	return nil
}
