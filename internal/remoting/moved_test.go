package remoting

import (
	"errors"
	"testing"

	"repro/internal/errs"
)

// TestBoundReplyCarriesForward: the compact error reply round-trips the
// migration forward fields alongside the error code and message.
func TestBoundReplyCarriesForward(t *testing.T) {
	resp := &callResponse{
		Seq:     7,
		IsErr:   true,
		ErrCode: errs.CodeMoved,
		ErrMsg:  "object moved",
		FwdAddr: "127.0.0.1:9999",
		FwdNode: 3,
		FwdGen:  5,
	}
	raw, enc, err := encodeBoundReply(&testEncs, resp)
	if err != nil {
		t.Fatal(err)
	}
	defer enc.Release()
	got, _, err := decodeReply(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.FwdAddr != resp.FwdAddr || got.FwdNode != resp.FwdNode || got.FwdGen != resp.FwdGen {
		t.Errorf("forward = (%q, %d, %d), want (%q, %d, %d)",
			got.FwdAddr, got.FwdNode, got.FwdGen, resp.FwdAddr, resp.FwdNode, resp.FwdGen)
	}
	if got.ErrCode != errs.CodeMoved || !got.IsErr {
		t.Errorf("error half lost: %+v", got)
	}

	// An error reply without a forward must not pay (or emit) the forward
	// fields.
	plain := &callResponse{Seq: 8, IsErr: true, ErrCode: errs.Code(errs.ErrObjectDestroyed), ErrMsg: "gone"}
	rawPlain, encPlain, err := encodeBoundReply(&testEncs, plain)
	if err != nil {
		t.Fatal(err)
	}
	defer encPlain.Release()
	gotPlain, _, err := decodeReply(rawPlain)
	if err != nil {
		t.Fatal(err)
	}
	if gotPlain.FwdAddr != "" || gotPlain.FwdNode != 0 || gotPlain.FwdGen != 0 {
		t.Errorf("plain error reply grew forward fields: %+v", gotPlain)
	}
}

// movedService fails every call with a MovedError, standing in for a
// migration tombstone.
type movedService struct{}

func (movedService) Call() (int, error) {
	return 0, &errs.MovedError{URI: "obj/x", Node: 2, Addr: "127.0.0.1:7777", Gen: 9}
}

// TestMovedErrorSurvivesWire: a server-side *errs.MovedError arrives at
// the client with its location intact and an errors.Is-able identity, on a
// pair's first call, which declares its handle, and on later ones, which
// travel bound.
func TestMovedErrorSurvivesWire(t *testing.T) {
	ch, srv, net := bindServer(t)
	srv.Marshal("svc", movedService{})
	ref := NewObjRef(ch, srv.Addr(), "svc")
	call := func(t *testing.T, i int) {
		t.Helper()
		_, err := ref.Invoke("Call")
		if !errors.Is(err, errs.ErrObjectMoved) {
			t.Fatalf("call %d: %v does not unwrap to ErrObjectMoved", i, err)
		}
		var mv *errs.MovedError
		if !errors.As(err, &mv) {
			t.Fatalf("call %d: no MovedError in chain: %v", i, err)
		}
		if mv.Addr != "127.0.0.1:7777" || mv.Node != 2 || mv.Gen != 9 {
			t.Errorf("call %d: forward = %+v", i, mv)
		}
	}
	t.Run("declaring", func(t *testing.T) {
		call(t, 0)
		net.wantMarkers(t, 1, 0, 1)
	})
	t.Run("compact", func(t *testing.T) {
		call(t, 1)
		call(t, 2)
		net.wantMarkers(t, 1, 2, 3)
	})
}
