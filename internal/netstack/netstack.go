// Package netstack is an in-memory socket substrate: IP and Unix-domain
// stream sockets over a loopback wire. It stands in for the FreeBSD
// network stack in the paper's Apache case study and download benchmark.
// Sockets carry MAC labels so the SHILL policy can gate the seven socket
// operations (create, bind, connect, listen, accept, send, receive); the
// kernel layer invokes those checks, not this package.
package netstack

import (
	"sort"
	"sync"
	"time"

	"repro/internal/errno"
	"repro/internal/mac"
	"repro/internal/prof"
)

// interrupted reports whether an interrupt channel has fired. A nil
// channel never interrupts, so uninterruptible callers pass nil and pay
// nothing.
func interrupted(intr <-chan struct{}) bool {
	if intr == nil {
		return false
	}
	select {
	case <-intr:
		return true
	default:
		return false
	}
}

// watch wakes cond via wake() when intr fires, until stop is closed.
// Blocking waits arm a watcher only once they are actually about to
// park, so the established fast paths never pay a goroutine spawn.
func watch(intr <-chan struct{}, stop <-chan struct{}, wake func()) {
	go func() {
		select {
		case <-intr:
			wake()
		case <-stop:
		}
	}()
}

// Domain distinguishes socket address families.
type Domain int

// Socket domains. The paper's Figure 7 permits capability-mediated IP
// and Unix sockets and denies every other family.
const (
	DomainIP Domain = iota
	DomainUnix
	DomainOther // any unsupported family; always denied by the kernel
)

func (d Domain) String() string {
	switch d {
	case DomainIP:
		return "ip"
	case DomainUnix:
		return "unix"
	}
	return "other"
}

// sockBufCap bounds each direction's in-flight bytes.
const sockBufCap = 256 * 1024

// halfConn is one direction of an established connection.
type halfConn struct {
	mu     sync.Mutex
	cond   *sync.Cond
	buf    []byte
	closed bool
}

func newHalfConn() *halfConn {
	h := &halfConn{}
	h.cond = sync.NewCond(&h.mu)
	return h
}

// wake re-evaluates any waiter's condition (interrupt delivery).
func (h *halfConn) wake() {
	h.mu.Lock()
	h.cond.Broadcast()
	h.mu.Unlock()
}

func (h *halfConn) write(p []byte, intr <-chan struct{}) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	total := 0
	var stop chan struct{}
	for len(p) > 0 {
		if h.closed {
			return total, errno.EPIPE
		}
		space := sockBufCap - len(h.buf)
		for space <= 0 && !h.closed {
			if interrupted(intr) {
				return total, errno.EINTR
			}
			if intr != nil && stop == nil {
				stop = make(chan struct{})
				defer close(stop)
				watch(intr, stop, h.wake)
			}
			h.cond.Wait()
			space = sockBufCap - len(h.buf)
		}
		if h.closed {
			return total, errno.EPIPE
		}
		n := len(p)
		if n > space {
			n = space
		}
		h.buf = append(h.buf, p[:n]...)
		p = p[n:]
		total += n
		h.cond.Broadcast()
	}
	return total, nil
}

func (h *halfConn) read(p []byte, intr <-chan struct{}) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	var stop chan struct{}
	for len(h.buf) == 0 {
		if h.closed {
			return 0, nil // EOF
		}
		if interrupted(intr) {
			return 0, errno.EINTR
		}
		if intr != nil && stop == nil {
			stop = make(chan struct{})
			defer close(stop)
			watch(intr, stop, h.wake)
		}
		h.cond.Wait()
	}
	n := copy(p, h.buf)
	h.buf = h.buf[n:]
	h.cond.Broadcast()
	return n, nil
}

func (h *halfConn) close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.closed = true
	h.cond.Broadcast()
}

// SockState tracks a socket through its lifecycle.
type SockState int

// Socket states.
const (
	StateNew SockState = iota
	StateBound
	StateListening
	StateConnected
	StateClosed
)

// Socket is a stream socket endpoint.
type Socket struct {
	stack  *Stack
	domain Domain

	mu      sync.Mutex
	cond    *sync.Cond
	state   SockState
	addr    string // bound address ("port:N" or unix path)
	backlog []*Socket
	rx, tx  *halfConn
	peer    *Socket

	label mac.Label
}

// MACLabel returns the socket's MAC label.
func (s *Socket) MACLabel() *mac.Label { return &s.label }

// Stack returns the stack that owns the socket.
func (s *Socket) Stack() *Stack { return s.stack }

// Domain returns the socket's address family.
func (s *Socket) Domain() Domain { return s.domain }

// State returns the socket's lifecycle state.
func (s *Socket) State() SockState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// Addr returns the bound address, if any.
func (s *Socket) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.addr
}

// Stack is the loopback network: a table of bound listeners per domain.
// The listener table is read-mostly (every Connect consults it, binds
// and closes mutate it), so it is guarded by an RWMutex rather than
// serialising all dials through one exclusive lock.
type Stack struct {
	mu        sync.RWMutex
	listeners map[string]*Socket // key: domain-prefixed address
	socks     map[*Socket]struct{}
	down      bool // Shutdown was called

	// ready holds one broadcast entry per address with waiters parked in
	// WaitListener; Listen closes the channel the moment a listener
	// starts accepting, so server-readiness is a notification instead of
	// the connect-poll loop the case-study drivers used to spin. Entries
	// are refcounted by their waiters and removed when the last waiter
	// leaves, so timed-out probes of never-bound addresses cannot grow
	// the map.
	ready map[string]*listenWaiter

	// prof, when set, counts every operation and times a sample of them
	// under prof.Net. A sampled operation that lands on a parked
	// Accept/Recv inherits the park time — the standard sampling-profiler
	// caveat, accepted rather than special-cased.
	prof *prof.Collector
}

// SetProf attaches the machine's profile collector (prof.Net). Set it
// before the stack is shared across goroutines; the kernel wires it at
// construction.
func (st *Stack) SetProf(c *prof.Collector) { st.prof = c }

// listenWaiter is one address's readiness broadcast.
type listenWaiter struct {
	ch   chan struct{}
	refs int
}

// New returns an empty loopback stack.
func New() *Stack {
	return &Stack{
		listeners: make(map[string]*Socket),
		socks:     make(map[*Socket]struct{}),
		ready:     make(map[string]*listenWaiter),
	}
}

func (st *Stack) register(s *Socket) {
	st.mu.Lock()
	st.socks[s] = struct{}{}
	st.mu.Unlock()
}

// Listeners returns the domain-prefixed addresses currently bound
// ("ip!80", "unix!/tmp/sock"), sorted. Conformance oracles snapshot it
// before and after a run: a generated program must never leave a
// listener on an address outside its manifest.
func (st *Stack) Listeners() []string {
	st.mu.RLock()
	out := make([]string, 0, len(st.listeners))
	for k := range st.listeners {
		out = append(out, k)
	}
	st.mu.RUnlock()
	sort.Strings(out)
	return out
}

// LiveSockets reports how many sockets are registered (bound, listening,
// or connected and not yet closed) — a leak signal for soak harnesses.
func (st *Stack) LiveSockets() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return len(st.socks)
}

// Shutdown tears the stack down: every live socket — listeners and
// established connections alike — is closed, which wakes any goroutine
// still parked in Accept or Recv with an error instead of leaving it on
// a condition variable forever. Subsequent binds fail with
// ECONNABORTED; Shutdown is idempotent.
func (st *Stack) Shutdown() {
	st.mu.Lock()
	if st.down {
		st.mu.Unlock()
		return
	}
	st.down = true
	snapshot := make([]*Socket, 0, len(st.socks))
	for s := range st.socks {
		snapshot = append(snapshot, s)
	}
	for k, w := range st.ready {
		close(w.ch) // wake WaitListener waiters; they observe down
		delete(st.ready, k)
	}
	st.mu.Unlock()
	for _, s := range snapshot {
		st.Close(s)
	}
}

// NewSocket creates an unbound socket. The kernel performs the MAC
// sock-create check before calling this.
func (st *Stack) NewSocket(d Domain) *Socket {
	defer st.prof.End(prof.Net, st.prof.Begin(prof.Net))
	s := &Socket{stack: st, domain: d, state: StateNew}
	s.cond = sync.NewCond(&s.mu)
	st.register(s)
	return s
}

func key(d Domain, addr string) string { return d.String() + "!" + addr }

// Bind attaches the socket to an address (e.g. "8080" for IP, a path for
// Unix sockets). Only one socket may be bound to an address at a time —
// the constraint behind the paper's privilege-amplification socket
// example (§3.2.2).
func (st *Stack) Bind(s *Socket, addr string) error {
	defer st.prof.End(prof.Net, st.prof.Begin(prof.Net))
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != StateNew {
		return errno.EINVAL
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.down {
		return errno.ECONNABORTED
	}
	k := key(s.domain, addr)
	if _, taken := st.listeners[k]; taken {
		return errno.EADDRINUSE
	}
	st.listeners[k] = s
	s.addr = addr
	s.state = StateBound
	return nil
}

// Listen marks a bound socket as accepting connections and wakes every
// WaitListener waiter parked on its address.
func (st *Stack) Listen(s *Socket) error {
	defer st.prof.End(prof.Net, st.prof.Begin(prof.Net))
	s.mu.Lock()
	if s.state != StateBound {
		s.mu.Unlock()
		return errno.EINVAL
	}
	s.state = StateListening
	k := key(s.domain, s.addr)
	s.mu.Unlock()

	st.mu.Lock()
	if w, ok := st.ready[k]; ok {
		close(w.ch)
		delete(st.ready, k)
	}
	st.mu.Unlock()
	return nil
}

// WaitListener blocks until a listener is accepting connections at addr
// in the given domain, the timeout elapses (ETIMEDOUT), intr fires
// (EINTR), or the stack shuts down (ECONNABORTED). Readiness is a
// condition signalled by Listen, not a poll: waiters park on a channel
// and wake the instant the server is reachable.
func (st *Stack) WaitListener(d Domain, addr string, timeout time.Duration, intr <-chan struct{}) error {
	k := key(d, addr)
	var deadline <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		deadline = t.C
	}
	for {
		st.mu.Lock()
		if st.down {
			st.mu.Unlock()
			return errno.ECONNABORTED
		}
		l := st.listeners[k]
		w, ok := st.ready[k]
		if !ok {
			w = &listenWaiter{ch: make(chan struct{})}
			st.ready[k] = w
		}
		w.refs++
		st.mu.Unlock()
		// The waiter is registered before the state check, so a Listen
		// racing with this probe is never missed — it will close w.ch.
		// (Checking l outside st.mu also keeps the s.mu -> st.mu lock
		// order Listen uses.)
		var err error
		done := false
		if l != nil && l.State() == StateListening {
			done = true
		} else {
			select {
			case <-w.ch:
				// Signalled: loop to re-check (the listener may already
				// have closed again, or the stack may be shutting down).
			case <-deadline:
				done, err = true, errno.ETIMEDOUT
			case <-intr:
				done, err = true, errno.EINTR
			}
		}
		st.mu.Lock()
		w.refs--
		if w.refs == 0 && st.ready[k] == w {
			delete(st.ready, k) // last waiter out removes the entry
		}
		st.mu.Unlock()
		if done {
			return err
		}
	}
}

// Connect dials the listener bound at addr in the socket's domain and
// blocks until the connection is accepted or refused.
func (st *Stack) Connect(s *Socket, addr string) error {
	defer st.prof.End(prof.Net, st.prof.Begin(prof.Net))
	s.mu.Lock()
	if s.state != StateNew {
		s.mu.Unlock()
		return errno.EINVAL
	}
	s.mu.Unlock()

	st.mu.RLock()
	l, ok := st.listeners[key(s.domain, addr)]
	st.mu.RUnlock()
	if !ok {
		return errno.ECONNREFUSED
	}
	l.mu.Lock()
	if l.state != StateListening {
		l.mu.Unlock()
		return errno.ECONNREFUSED
	}
	// Build the two directions and the server-side endpoint.
	c2s, s2c := newHalfConn(), newHalfConn()
	srv := &Socket{stack: st, domain: s.domain, state: StateConnected, rx: c2s, tx: s2c, addr: l.addr}
	srv.cond = sync.NewCond(&srv.mu)
	srv.peer = s
	st.register(srv)
	l.backlog = append(l.backlog, srv)
	l.cond.Broadcast()
	l.mu.Unlock()

	s.mu.Lock()
	s.rx, s.tx = s2c, c2s
	s.state = StateConnected
	s.peer = srv
	s.mu.Unlock()
	return nil
}

// Accept blocks until a connection is queued on the listener and returns
// the server-side endpoint. Closing the listener (or shutting the stack
// down) wakes every blocked accepter, which then returns ECONNABORTED —
// a blocked Accept never outlives its listener.
func (st *Stack) Accept(l *Socket) (*Socket, error) {
	return st.AcceptIntr(l, nil)
}

// AcceptIntr is Accept with an interrupt channel: when intr fires while
// the accepter is parked, it returns EINTR instead of waiting for a
// connection. A nil intr makes it identical to Accept. This is what lets
// a context cancellation stop a script blocked in socket_accept without
// tearing the listener down.
func (st *Stack) AcceptIntr(l *Socket, intr <-chan struct{}) (*Socket, error) {
	defer st.prof.End(prof.Net, st.prof.Begin(prof.Net))
	l.mu.Lock()
	defer l.mu.Unlock()
	var stop chan struct{}
	for l.state == StateListening && len(l.backlog) == 0 {
		if interrupted(intr) {
			return nil, errno.EINTR
		}
		if intr != nil && stop == nil {
			stop = make(chan struct{})
			defer close(stop)
			watch(intr, stop, func() {
				l.mu.Lock()
				l.cond.Broadcast()
				l.mu.Unlock()
			})
		}
		l.cond.Wait()
	}
	if l.state == StateClosed {
		return nil, errno.ECONNABORTED
	}
	if l.state != StateListening {
		return nil, errno.EINVAL
	}
	srv := l.backlog[0]
	l.backlog = l.backlog[1:]
	return srv, nil
}

// Send writes to the connection.
func (st *Stack) Send(s *Socket, p []byte) (int, error) {
	return st.SendIntr(s, p, nil)
}

// SendIntr is Send with an interrupt channel (see AcceptIntr): a sender
// parked on a full buffer returns EINTR with the partial count when intr
// fires.
func (st *Stack) SendIntr(s *Socket, p []byte, intr <-chan struct{}) (int, error) {
	defer st.prof.End(prof.Net, st.prof.Begin(prof.Net))
	s.mu.Lock()
	tx := s.tx
	state := s.state
	s.mu.Unlock()
	if state != StateConnected || tx == nil {
		return 0, errno.ENOTCONN
	}
	return tx.write(p, intr)
}

// Recv reads from the connection; 0, nil means the peer closed.
func (st *Stack) Recv(s *Socket, p []byte) (int, error) {
	return st.RecvIntr(s, p, nil)
}

// RecvIntr is Recv with an interrupt channel (see AcceptIntr): a reader
// parked on an empty buffer returns EINTR when intr fires.
func (st *Stack) RecvIntr(s *Socket, p []byte, intr <-chan struct{}) (int, error) {
	defer st.prof.End(prof.Net, st.prof.Begin(prof.Net))
	s.mu.Lock()
	rx := s.rx
	state := s.state
	s.mu.Unlock()
	if state != StateConnected || rx == nil {
		return 0, errno.ENOTCONN
	}
	return rx.read(p, intr)
}

// Close shuts the socket down: listeners are unbound (waking blocked
// accepts) and connections close both directions.
func (st *Stack) Close(s *Socket) {
	defer st.prof.End(prof.Net, st.prof.Begin(prof.Net))
	s.mu.Lock()
	prev := s.state
	s.state = StateClosed
	if s.rx != nil {
		s.rx.close()
	}
	if s.tx != nil {
		s.tx.close()
	}
	backlog := s.backlog
	s.backlog = nil
	s.cond.Broadcast()
	addr, domain := s.addr, s.domain
	s.mu.Unlock()

	for _, queued := range backlog {
		st.Close(queued)
	}
	st.mu.Lock()
	delete(st.socks, s)
	if prev == StateBound || prev == StateListening {
		if st.listeners[key(domain, addr)] == s {
			delete(st.listeners, key(domain, addr))
		}
	}
	st.mu.Unlock()
}
