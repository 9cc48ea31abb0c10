// Package mono is the 2005 Mono remoting stack the paper measures: the three
// channel implementations of Fig. 8b, which also supply the "Mono" row of
// Fig. 8a and of the latency table.
//
//   - TCP: Mono 1.1.7's Tcp channel — binary formatter, pooled connections,
//     each body one wire message;
//   - LegacyTCP: Mono 1.0.5's — a dial per call and bodies flushed in 1 KiB
//     chunks, each chunk a wire message of its own, the mechanism behind its
//     bandwidth collapse;
//   - HTTP: the SOAP channel — textual encoding inside HTTP/1.0-style
//     framing, no keep-alive.
//
// All three carry one call per connection at a time and serve a connection
// sequentially, as the 2005 channels did. It is a baseline like package
// rmi, not the production channel (package remoting), and nothing in the
// production tree imports it. Endpoint costs of the Mono runtime are
// charged through Channel.Cost; package profile holds calibrated values.
package mono

import (
	"bytes"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/dispatch"
	"repro/internal/paper/cost"
	"repro/internal/paper/wirecodecs"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Kind selects one of the three Fig. 8b channels.
type Kind int

const (
	TCP Kind = iota
	LegacyTCP
	HTTP
)

// chunk is the flush granularity of the legacy channel.
const chunk = 1024

// maxIdle bounds the pooled connections kept per address.
const maxIdle = 16

// call is the request envelope.
type call struct {
	URI    string
	Method string
	Seq    uint64
	Args   []any
}

// reply is the response envelope.
type reply struct {
	Seq    uint64
	Result any
	ErrMsg string
	IsErr  bool
}

func init() {
	wire.RegisterName("mono.call", call{})
	wire.RegisterName("mono.reply", reply{})
}

// Channel is one configured Mono channel over a network. Like a .NET
// channel it serves both roles: ListenAndServe publishes objects, Invoke
// calls them.
type Channel struct {
	net   transport.Network
	codec wirecodecs.Codec
	// What tells the three kinds apart.
	keepAlive bool // TCP: a completed call's connection is pooled for the next
	chunked   bool // LegacyTCP: bodies cross the wire in chunk-sized messages
	http      bool // HTTP: SOAP text under HTTP/1.0-style headers

	// Cost is charged once per message at each endpoint and once per dial.
	Cost cost.Model

	seq  atomic.Uint64
	mu   sync.Mutex
	idle map[string][]transport.Conn // keepAlive only
}

// NewChannel returns the channel of the given kind over net.
func NewChannel(kind Kind, net transport.Network) *Channel {
	ch := &Channel{
		net:       net,
		codec:     wire.BinFmt{},
		keepAlive: kind == TCP,
		chunked:   kind == LegacyTCP,
		http:      kind == HTTP,
	}
	if ch.http {
		ch.codec = wirecodecs.SoapFmt{}
	}
	return ch
}

// Close closes the idle pooled connections.
func (ch *Channel) Close() {
	ch.mu.Lock()
	idle := ch.idle
	ch.idle = nil
	ch.mu.Unlock()
	for _, conns := range idle {
		for _, c := range conns {
			c.Close()
		}
	}
}

// Invoke calls method on the object published at uri by the server at
// netaddr and waits for its result.
func (ch *Channel) Invoke(netaddr, uri, method string, args ...any) (any, error) {
	req := call{URI: uri, Method: method, Seq: ch.seq.Add(1), Args: args}
	raw, err := ch.encode(req, "POST /"+uri+" HTTP/1.0")
	if err != nil {
		return nil, fmt.Errorf("mono: encode %s.%s: %w", uri, method, err)
	}
	c, err := ch.conn(netaddr)
	if err != nil {
		return nil, fmt.Errorf("mono: dial %s: %w", netaddr, err)
	}
	resp, err := ch.exchange(c, raw, req.Seq)
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("mono: call %s.%s at %s: %w", uri, method, netaddr, err)
	}
	ch.release(netaddr, c)
	if resp.IsErr {
		return nil, fmt.Errorf("mono: %s.%s: %s", uri, method, resp.ErrMsg)
	}
	return resp.Result, nil
}

// exchange is the send/receive/decode of one call on c.
func (ch *Channel) exchange(c transport.Conn, raw []byte, seq uint64) (reply, error) {
	if err := ch.send(c, raw); err != nil {
		return reply{}, err
	}
	rawResp, err := ch.recv(c)
	if err != nil {
		return reply{}, err
	}
	v, err := ch.decode(rawResp)
	if err != nil {
		return reply{}, err
	}
	resp, ok := v.(reply)
	if !ok {
		return reply{}, fmt.Errorf("decoded %T, want a reply", v)
	}
	if resp.Seq != seq {
		return reply{}, fmt.Errorf("reply seq %d does not match call %d", resp.Seq, seq)
	}
	return resp, nil
}

// conn returns an idle pooled connection or dials.
func (ch *Channel) conn(netaddr string) (transport.Conn, error) {
	if ch.keepAlive {
		ch.mu.Lock()
		if conns := ch.idle[netaddr]; len(conns) > 0 {
			c := conns[len(conns)-1]
			ch.idle[netaddr] = conns[:len(conns)-1]
			ch.mu.Unlock()
			return c, nil
		}
		ch.mu.Unlock()
	}
	ch.Cost.ChargeConnect()
	return ch.net.Dial(netaddr)
}

// release pools c after a completed call, or closes it.
func (ch *Channel) release(netaddr string, c transport.Conn) {
	if ch.keepAlive {
		ch.mu.Lock()
		if len(ch.idle[netaddr]) < maxIdle {
			if ch.idle == nil {
				ch.idle = make(map[string][]transport.Conn)
			}
			ch.idle[netaddr] = append(ch.idle[netaddr], c)
			ch.mu.Unlock()
			return
		}
		ch.mu.Unlock()
	}
	c.Close()
}

// encode serialises an envelope; the HTTP kind wraps it under startLine.
func (ch *Channel) encode(v any, startLine string) ([]byte, error) {
	body, err := ch.codec.Marshal(v)
	if err != nil {
		return nil, err
	}
	if ch.http {
		return buildHTTPMessage(startLine, body), nil
	}
	return body, nil
}

// decode is the inverse of encode.
func (ch *Channel) decode(raw []byte) (any, error) {
	if ch.http {
		var err error
		if raw, err = parseHTTPMessage(raw); err != nil {
			return nil, err
		}
	}
	return ch.codec.Unmarshal(raw)
}

// send charges the endpoint cost and transmits one message. The legacy
// kind flushes it in chunk-sized wire messages, each prefixed with a
// continuation flag, so every chunk pays the per-message costs of the
// transport and the network: Mono 1.0.5's unbuffered small writes.
func (ch *Channel) send(c transport.Conn, msg []byte) error {
	ch.Cost.Charge(len(msg))
	if !ch.chunked {
		return c.Send(msg)
	}
	for off := 0; ; off += chunk {
		end := min(off+chunk, len(msg))
		frame := make([]byte, 1+end-off)
		if end < len(msg) {
			frame[0] = 1
		}
		copy(frame[1:], msg[off:end])
		if err := c.Send(frame); err != nil {
			return err
		}
		if end == len(msg) {
			return nil
		}
	}
}

// recv receives one message, reassembling legacy chunks, and charges the
// endpoint cost.
func (ch *Channel) recv(c transport.Conn) ([]byte, error) {
	if !ch.chunked {
		msg, err := c.Recv()
		if err != nil {
			return nil, err
		}
		ch.Cost.Charge(len(msg))
		return msg, nil
	}
	var msg []byte
	for {
		frame, err := c.Recv()
		if err != nil {
			return nil, err
		}
		if len(frame) < 1 {
			return nil, fmt.Errorf("empty legacy chunk")
		}
		msg = append(msg, frame[1:]...)
		if frame[0] == 0 {
			break
		}
	}
	ch.Cost.Charge(len(msg))
	return msg, nil
}

// buildHTTPMessage wraps a body in minimal HTTP-style text framing. The
// whole message still travels as one transport frame; the point is the
// byte count and parse cost of the textual envelope, as with the real SOAP
// channel.
func buildHTTPMessage(startLine string, body []byte) []byte {
	var b bytes.Buffer
	b.WriteString(startLine)
	b.WriteString("\r\nContent-Type: text/xml; charset=utf-8\r\nConnection: close\r\nSOAPAction: \"#invoke\"\r\nContent-Length: ")
	b.WriteString(strconv.Itoa(len(body)))
	b.WriteString("\r\n\r\n")
	b.Write(body)
	return b.Bytes()
}

// parseHTTPMessage strips the HTTP-style framing and returns the body.
func parseHTTPMessage(raw []byte) ([]byte, error) {
	head, body, ok := bytes.Cut(raw, []byte("\r\n\r\n"))
	if !ok {
		return nil, fmt.Errorf("malformed HTTP message: no header terminator")
	}
	for _, line := range bytes.Split(head, []byte("\r\n")) {
		if k, v, ok := bytes.Cut(line, []byte(":")); ok &&
			bytes.EqualFold(bytes.TrimSpace(k), []byte("Content-Length")) {
			n, err := strconv.Atoi(string(bytes.TrimSpace(v)))
			if err != nil {
				return nil, fmt.Errorf("bad Content-Length %q", v)
			}
			if n != len(body) {
				return nil, fmt.Errorf("Content-Length %d does not match body %d", n, len(body))
			}
		}
	}
	return body, nil
}

// Server publishes objects on a channel's listening endpoint.
type Server struct {
	ch       *Channel
	listener transport.Listener

	mu      sync.Mutex
	objects map[string]any
	conns   map[transport.Conn]struct{}
	closed  bool

	wg sync.WaitGroup
}

// ListenAndServe starts serving on addr (transport syntax; "" picks a
// fresh memory address) and returns immediately.
func (ch *Channel) ListenAndServe(addr string) (*Server, error) {
	l, err := ch.net.Listen(addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		ch:       ch,
		listener: l,
		objects:  make(map[string]any),
		conns:    make(map[transport.Conn]struct{}),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the transport address clients pass to Invoke.
func (s *Server) Addr() string { return s.listener.Addr() }

// Publish makes obj callable under uri (a well-known singleton).
func (s *Server) Publish(uri string, obj any) {
	s.mu.Lock()
	s.objects[uri] = obj
	s.mu.Unlock()
}

// Close stops the listener, closes every served connection and waits for
// the serve loops to exit.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	conns := make([]transport.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	s.listener.Close()
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		c, err := s.listener.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serve(c)
	}
}

// serve answers the calls of one connection one at a time. A message that
// does not decode leaves no sequence number to answer, so it ends the
// connection.
func (s *Server) serve(c transport.Conn) {
	defer s.wg.Done()
	defer func() {
		c.Close()
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
	}()
	for {
		raw, err := s.ch.recv(c)
		if err != nil {
			return
		}
		v, err := s.ch.decode(raw)
		if err != nil {
			return
		}
		req, ok := v.(call)
		if !ok {
			return
		}
		resp := s.dispatch(req)
		rawResp, err := s.ch.encode(resp, "HTTP/1.0 200 OK")
		if err != nil {
			resp = reply{Seq: req.Seq, IsErr: true, ErrMsg: fmt.Sprintf("unencodable result: %v", err)}
			if rawResp, err = s.ch.encode(resp, "HTTP/1.0 200 OK"); err != nil {
				return
			}
		}
		if err := s.ch.send(c, rawResp); err != nil {
			return
		}
	}
}

func (s *Server) dispatch(req call) reply {
	s.mu.Lock()
	obj := s.objects[req.URI]
	s.mu.Unlock()
	if obj == nil {
		return reply{Seq: req.Seq, IsErr: true, ErrMsg: fmt.Sprintf("no object published at %q", req.URI)}
	}
	result, err := dispatch.Invoke(obj, req.Method, req.Args)
	if err != nil {
		return reply{Seq: req.Seq, IsErr: true, ErrMsg: err.Error()}
	}
	return reply{Seq: req.Seq, Result: result}
}
