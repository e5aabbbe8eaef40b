// Package noc implements a cycle-accurate 2-D mesh network-on-chip as an
// alternative to the fabric's direct point-to-point links.
//
// Routers use XY dimension-order routing (deadlock-free for the network
// itself), per-input-port FIFO buffering with credit-based hop flow
// control, and round-robin arbitration per output port. Every token of a
// bridged channel travels as a single-flit packet; because a flow's
// packets all take the same deterministic path through FIFO buffers,
// per-flow ordering is preserved — the latency-insensitive channel
// abstraction the PEs program against is unchanged, only slower under
// contention. The whole mesh is one fabric element, stepped once per
// cycle with the same two-phase discipline as everything else.
package noc

import (
	"fmt"

	"tia/internal/channel"
	"tia/internal/fabric"
)

// Config sizes the mesh.
type Config struct {
	Width, Height int
	// BufferDepth is each router input port's FIFO depth (>= 1).
	BufferDepth int
}

// DefaultConfig returns a 4x4 mesh with depth-2 port buffers.
func DefaultConfig() Config { return Config{Width: 4, Height: 4, BufferDepth: 2} }

// flit is one token in flight, heading to (dx, dy) for flow.
type flit struct {
	tok    channel.Token
	dx, dy int
	flow   int
}

// port directions.
const (
	dirLocal = iota
	dirNorth
	dirSouth
	dirEast
	dirWest
	numDirs
)

var dirNames = [numDirs]string{"local", "north", "south", "east", "west"}

// router is one mesh node.
type router struct {
	x, y   int
	inBuf  [numDirs][]flit
	rrNext [numDirs]int // round-robin pointer per output port
}

// flow is one bridged channel.
type flow struct {
	name     string
	sx, sy   int
	dx, dy   int
	from, to *channel.Channel
}

// Mesh is the network element. Construct with New, declare flows with
// Bridge (or wire elements directly with WireOver), then add to a fabric.
type Mesh struct {
	name    string
	cfg     Config
	routers [][]*router
	flows   []*flow

	delivered int64
	injected  int64
	hops      int64
}

// New returns an empty mesh.
func New(name string, cfg Config) *Mesh {
	if cfg.Width < 1 || cfg.Height < 1 {
		panic(fmt.Sprintf("noc %s: mesh %dx%d", name, cfg.Width, cfg.Height))
	}
	if cfg.BufferDepth < 1 {
		cfg.BufferDepth = 1
	}
	m := &Mesh{name: name, cfg: cfg}
	m.routers = make([][]*router, cfg.Width)
	for x := range m.routers {
		m.routers[x] = make([]*router, cfg.Height)
		for y := range m.routers[x] {
			m.routers[x][y] = &router{x: x, y: y}
		}
	}
	return m
}

// Name implements fabric.Element.
func (m *Mesh) Name() string { return m.name }

// Done implements fabric.Element; the mesh is passive.
func (m *Mesh) Done() bool { return false }

// Bridge declares a flow from node (sx,sy) to node (dx,dy) and returns
// the sender-side and receiver-side channels. The caller connects the
// producing element's output to the first and the consuming element's
// input to the second; both channels must be ticked by the fabric (use
// WireOver for the common case).
func (m *Mesh) Bridge(name string, sx, sy, dx, dy, capacity int) (senderSide, receiverSide *channel.Channel) {
	m.checkNode(sx, sy)
	m.checkNode(dx, dy)
	from := channel.New(name+".inject", capacity, 0)
	to := channel.New(name+".deliver", capacity, 0)
	m.flows = append(m.flows, &flow{name: name, sx: sx, sy: sy, dx: dx, dy: dy, from: from, to: to})
	return from, to
}

func (m *Mesh) checkNode(x, y int) {
	if x < 0 || x >= m.cfg.Width || y < 0 || y >= m.cfg.Height {
		panic(fmt.Sprintf("noc %s: node (%d,%d) outside %dx%d mesh", m.name, x, y, m.cfg.Width, m.cfg.Height))
	}
}

// WireOver routes a logical connection over the mesh: src's output port
// feeds the injection channel at (sx,sy); the delivery channel at (dx,dy)
// feeds dst's input port. Both channels are registered with the fabric.
// Like an out-of-mesh node, a bad port index or a port connected twice
// panics: the mesh is wired by trusted kernel code.
func (m *Mesh) WireOver(f *fabric.Fabric, name string,
	src fabric.OutPort, outIdx, sx, sy int,
	dst fabric.InPort, inIdx, dx, dy int, capacity int) {
	from, to := m.Bridge(name, sx, sy, dx, dy, capacity)
	f.AdoptChannel(from)
	f.AdoptChannel(to)
	if err := src.ConnectOut(outIdx, from); err != nil {
		panic(err.Error())
	}
	if err := dst.ConnectIn(inIdx, to); err != nil {
		panic(err.Error())
	}
	// Declare endpoints so the event-driven stepper wakes exactly the
	// producer, the mesh, and the consumer instead of everything.
	se, _ := src.(fabric.Element)
	de, _ := dst.(fabric.Element)
	f.BindChannel(from, se, m)
	f.BindChannel(to, m, de)
}

// NeedsStep implements the fabric's wake hint: while flits are buffered
// in routers the mesh must be stepped every cycle even after a no-move
// cycle, since hops between routers depend only on internal buffer state
// and not on any fabric channel the stepper could watch.
func (m *Mesh) NeedsStep() bool { return m.InFlight() > 0 }

// route returns the output direction for a flit at router (x,y): X first,
// then Y, then local.
func route(x, y int, fl flit) int {
	switch {
	case fl.dx > x:
		return dirEast
	case fl.dx < x:
		return dirWest
	case fl.dy > y:
		return dirNorth
	case fl.dy < y:
		return dirSouth
	default:
		return dirLocal
	}
}

// neighbor returns the adjacent router in the given direction.
func (m *Mesh) neighbor(x, y, dir int) *router {
	switch dir {
	case dirNorth:
		return m.routers[x][y+1]
	case dirSouth:
		return m.routers[x][y-1]
	case dirEast:
		return m.routers[x+1][y]
	case dirWest:
		return m.routers[x-1][y]
	default:
		return nil
	}
}

// opposite returns the input port a flit arrives on after moving dir.
func opposite(dir int) int {
	switch dir {
	case dirNorth:
		return dirSouth
	case dirSouth:
		return dirNorth
	case dirEast:
		return dirWest
	case dirWest:
		return dirEast
	default:
		return dirLocal
	}
}

// move is one planned hop for this cycle.
type move struct {
	r    *router
	in   int
	dir  int // output direction (dirLocal = deliver)
	flit flit
}

// Step implements fabric.Element: plan all hops against start-of-cycle
// state, then commit, so flits advance at most one hop per cycle and
// router step order is immaterial.
func (m *Mesh) Step(int64) bool {
	var moves []move
	// Reserve tracking: output capacity consumed this cycle.
	type key struct{ x, y, port int }
	reserved := map[key]int{}
	space := func(r *router, port int) bool {
		k := key{r.x, r.y, port}
		return len(r.inBuf[port])+reserved[k] < m.cfg.BufferDepth
	}

	// Router traversal: each output port arbitrates round-robin among
	// input ports whose head flit wants it.
	for x := range m.routers {
		for _, r := range m.routers[x] {
			for out := 0; out < numDirs; out++ {
				// Find the next requesting input in round-robin order.
				for k := 0; k < numDirs; k++ {
					in := (r.rrNext[out] + k) % numDirs
					if len(r.inBuf[in]) == 0 {
						continue
					}
					head := r.inBuf[in][0]
					if route(r.x, r.y, head) != out {
						continue
					}
					if out == dirLocal {
						// Delivery: find the flow's channel.
						fl := m.flows[head.flow]
						if !fl.to.CanAccept() {
							break // head-of-line blocks this input
						}
						moves = append(moves, move{r: r, in: in, dir: out, flit: head})
						r.rrNext[out] = (in + 1) % numDirs
						break
					}
					nb := m.neighbor(r.x, r.y, out)
					inPort := opposite(out)
					if !space(nb, inPort) {
						break
					}
					reserved[key{nb.x, nb.y, inPort}]++
					moves = append(moves, move{r: r, in: in, dir: out, flit: head})
					r.rrNext[out] = (in + 1) % numDirs
					break
				}
			}
		}
	}

	// Injection: one flit per flow per cycle, if the local port has room.
	type injection struct {
		fl *flow
		f  flit
		r  *router
	}
	var injections []injection
	for i, fl := range m.flows {
		tok, ok := fl.from.Peek()
		if !ok {
			continue
		}
		r := m.routers[fl.sx][fl.sy]
		if !space(r, dirLocal) {
			continue
		}
		reserved[key{r.x, r.y, dirLocal}]++
		fl.from.Deq()
		injections = append(injections, injection{fl: fl, f: flit{tok: tok, dx: fl.dx, dy: fl.dy, flow: i}, r: r})
	}

	// Commit: remove moved flits, then append at their new homes. Heads
	// are shifted out rather than re-sliced so the buffers (bounded by
	// BufferDepth) keep a stable base and never re-allocate once grown.
	for _, mv := range moves {
		buf := mv.r.inBuf[mv.in]
		copy(buf, buf[1:])
		mv.r.inBuf[mv.in] = buf[:len(buf)-1]
	}
	for _, mv := range moves {
		if mv.dir == dirLocal {
			m.flows[mv.flit.flow].to.Send(mv.flit.tok)
			m.delivered++
			continue
		}
		nb := m.neighbor(mv.r.x, mv.r.y, mv.dir)
		nb.inBuf[opposite(mv.dir)] = append(nb.inBuf[opposite(mv.dir)], mv.flit)
		m.hops++
	}
	for _, inj := range injections {
		inj.r.inBuf[dirLocal] = append(inj.r.inBuf[dirLocal], inj.f)
		m.injected++
	}
	return len(moves)+len(injections) > 0
}

// Stats reports cumulative traffic counters.
type Stats struct {
	Injected  int64
	Delivered int64
	Hops      int64
}

// Stats returns the mesh's counters.
func (m *Mesh) Stats() Stats {
	return Stats{Injected: m.injected, Delivered: m.delivered, Hops: m.hops}
}

// InFlight reports how many flits are buffered in routers.
func (m *Mesh) InFlight() int {
	n := 0
	for x := range m.routers {
		for _, r := range m.routers[x] {
			for d := 0; d < numDirs; d++ {
				n += len(r.inBuf[d])
			}
		}
	}
	return n
}
