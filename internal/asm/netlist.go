package asm

import (
	"fmt"
	"strconv"
	"strings"

	"tia/internal/channel"
	"tia/internal/fabric"
	"tia/internal/isa"
	"tia/internal/mem"
	"tia/internal/pcpe"
	"tia/internal/pe"
)

// Netlist is a fully constructed fabric plus name-indexed handles to its
// elements, built from one netlist source file.
type Netlist struct {
	Fabric  *fabric.Fabric
	Sources map[string]*fabric.Source
	Sinks   map[string]*fabric.Sink
	PEs     map[string]*pe.PE
	PCPEs   map[string]*pcpe.PE
	Mems    map[string]*mem.Scratchpad

	// fpRecs are canonical one-record-per-declaration strings derived from
	// the *assembled* fabric (formatted programs, resolved port indices,
	// effective channel capacities/latencies). Fingerprint hashes them; see
	// hash.go.
	fpRecs []string
}

// Declaration IR: the parse phase records what the source declares
// without constructing anything, so validation and resource admission
// can run before the first allocation.

type sourceDecl struct {
	line int
	name string
	toks []channel.Token
}

type sinkDecl struct {
	line int
	name string
	mode string // "eods" or "count"
	n    int
}

type spDecl struct {
	line  int
	name  string
	size  int
	lat   int
	image []isa.Word
}

type peDecl struct {
	line int
	kind string // "pe" or "pcpe"
	name string
	cfg  isa.Config // pe only
	tia  *TIAProgram
	pc   *PCProgram

	// Built by the validate phase (PE construction is bounded small by
	// isa.Config.CheckLimits, so it is safe ahead of admission).
	tiaProc *pe.PE
	pcProc  *pcpe.PE
}

type placement struct {
	name string
	x, y int
	line int
}

type wireDecl struct {
	line             int
	srcElem, srcPort string
	dstElem, dstPort string
	capacity, lat    int // -1 means fabric default

	// Resolved by the validate phase.
	srcIdx, dstIdx int
}

// Structural size ceilings, enforced by the validate phase regardless
// of any resource governor: both scratchpad words and channel buffers
// are allocated eagerly at construction, so an absurd size in either is
// a one-line memory bomb, not a plausible design. The service applies
// MaxChannelCap to a workload job's channel_capacity as well.
const (
	maxScratchpadWords = 1 << 22
	MaxChannelCap      = 1 << 20
)

type elemKind int

const (
	kindSource elemKind = iota
	kindSink
	kindPE
	kindPCPE
	kindMem
)

func (k elemKind) String() string {
	switch k {
	case kindSource:
		return "source"
	case kindSink:
		return "sink"
	case kindPE:
		return "pe"
	case kindPCPE:
		return "pcpe"
	default:
		return "scratchpad"
	}
}

// netParser carries state across the parse, validate and build phases.
type netParser struct {
	tiaCfg isa.Config
	pcCfg  pcpe.Config
	fabCfg fabric.Config

	diags     Diagnostics
	names     map[string]elemKind
	pesByName map[string]*peDecl

	srcDecls  []sourceDecl
	sinkDecls []sinkDecl
	spDecls   []spDecl
	peDecls   []*peDecl
	places    []placement
	wires     []wireDecl
}

// ParseNetlist parses a complete fabric description:
//
//	source a : 1 3 5 eod        // token stream (words, V#T, eod)
//	sink o                      // completes on one EOD
//	sink o2 count 5             // or after N tokens
//	scratchpad sp 256 : 9 9 9   // size, optional initial image
//	pe merge                    // triggered PE block (see ParseTIA)
//	  ...
//	end
//	pcpe merge2                 // sequential PE block (see ParsePC)
//	  ...
//	end
//	place merge 1 1
//	wire a.0 -> merge.a
//	wire merge.o -> o.0 cap 8 lat 2
//
// Scratchpad ports are named raddr, waddr, wdata (inputs) and rdata
// (output); sources expose output 0 and sinks input 0; PE ports go by
// their declared channel names.
//
// Parsing runs in three phases — parse (declaration IR, no
// construction), validate (structural checks with source positions,
// reported together as a Diagnostics multi-error), build (construction
// through error-returning fabric APIs) — so a malformed or hostile
// netlist is rejected with typed diagnostics instead of a panic, and
// nothing is allocated for a netlist that fails validation.
func ParseNetlist(src string, tiaCfg isa.Config, pcCfg pcpe.Config) (*Netlist, error) {
	return ParseNetlistAdmit(src, tiaCfg, pcCfg, nil)
}

// ParseNetlistAdmit is ParseNetlist with a resource-admission hook: after
// validation succeeds and before anything is built, admit is called with
// the netlist's resource Census. If admit returns an error, construction
// is abandoned and that error is returned verbatim (so callers can
// surface typed resource-limit errors). A nil admit admits everything.
func ParseNetlistAdmit(src string, tiaCfg isa.Config, pcCfg pcpe.Config, admit func(Census) error) (*Netlist, error) {
	np := newNetParser(tiaCfg, pcCfg)
	np.parse(src)
	census := np.validate()
	if err := np.diags.errOrNil(); err != nil {
		return nil, err
	}
	if admit != nil {
		if err := admit(census); err != nil {
			return nil, err
		}
	}
	return np.build()
}

// CheckNetlist runs the parse and validate phases only, returning the
// netlist's resource Census without building a fabric. Coordinators use
// it to vet batch templates cheaply; the error (if any) is a
// Diagnostics multi-error.
func CheckNetlist(src string, tiaCfg isa.Config, pcCfg pcpe.Config) (Census, error) {
	np := newNetParser(tiaCfg, pcCfg)
	np.parse(src)
	census := np.validate()
	return census, np.diags.errOrNil()
}

func newNetParser(tiaCfg isa.Config, pcCfg pcpe.Config) *netParser {
	return &netParser{
		tiaCfg:    tiaCfg,
		pcCfg:     pcCfg,
		fabCfg:    fabric.DefaultConfig(),
		names:     map[string]elemKind{},
		pesByName: map[string]*peDecl{},
	}
}

// parse scans the source into declaration IR, accumulating diagnostics
// instead of stopping at the first problem.
func (np *netParser) parse(src string) {
	lines := strings.Split(src, "\n")
	for i := 0; i < len(lines); i++ {
		line := stripComment(lines[i])
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "config":
			np.parseConfig(i+1, fields[1:])
		case "source":
			np.parseSource(i+1, line)
		case "sink":
			np.parseSink(i+1, fields[1:])
		case "scratchpad":
			np.parseScratchpad(i+1, line)
		case "place":
			np.parsePlace(i+1, fields[1:])
		case "wire":
			np.parseWire(i+1, fields[1:])
		case "pe", "pcpe":
			var body []string
			j := i + 1
			for ; j < len(lines); j++ {
				if strings.TrimSpace(stripComment(lines[j])) == "end" {
					break
				}
				body = append(body, lines[j])
			}
			if j == len(lines) {
				np.diags.add(i+1, "unterminated %s block (missing end)", fields[0])
				return
			}
			if len(fields) < 2 {
				np.diags.add(i+1, "%s needs a name", fields[0])
			} else {
				np.parsePEBlock(i+1, fields[0], fields[1], fields[2:], strings.Join(body, "\n"))
			}
			i = j
		default:
			np.diags.add(i+1, "unknown directive %q", fields[0])
		}
	}
}

func (np *netParser) parseConfig(ln int, fields []string) {
	for i := 0; i+1 < len(fields); i += 2 {
		v, err := strconv.Atoi(fields[i+1])
		if err != nil {
			np.diags.add(ln, "bad config value %q", fields[i+1])
			return
		}
		switch fields[i] {
		case "cap":
			if v < 1 {
				np.diags.add(ln, "config cap %d < 1", v)
				return
			}
			if v > MaxChannelCap {
				np.diags.add(ln, "config cap %d exceeds the %d-token fabric limit", v, MaxChannelCap)
				return
			}
			np.fabCfg.ChannelCapacity = v
		case "lat":
			if v < 0 {
				np.diags.add(ln, "config lat %d < 0", v)
				return
			}
			np.fabCfg.ChannelLatency = v
		default:
			np.diags.add(ln, "unknown config key %q", fields[i])
			return
		}
	}
}

// declareName validates and registers an element name, reporting a bad
// or duplicate name. It returns false when the declaration must be
// dropped entirely (the name cannot be referenced).
func (np *netParser) declareName(ln int, name string, kind elemKind) bool {
	if !ident(name) {
		np.diags.add(ln, "bad element name %q", name)
		return false
	}
	if _, dup := np.names[name]; dup {
		np.diags.add(ln, "element %q already defined", name)
		return false
	}
	np.names[name] = kind
	return true
}

func (np *netParser) parseSource(ln int, line string) {
	colon := strings.Index(line, ":")
	if colon < 0 {
		np.diags.add(ln, "source needs ': tokens'")
		return
	}
	head := strings.Fields(line[:colon])
	if len(head) != 2 {
		np.diags.add(ln, "source needs exactly one name")
		return
	}
	name := head[1]
	if !np.declareName(ln, name, kindSource) {
		return
	}
	var toks []channel.Token
	for _, f := range strings.Fields(line[colon+1:]) {
		tok, err := parseToken(f)
		if err != nil {
			np.diags.add(ln, "%v", err)
			return
		}
		toks = append(toks, tok)
	}
	np.srcDecls = append(np.srcDecls, sourceDecl{line: ln, name: name, toks: toks})
}

// parseToken parses "eod", a bare word, or value#tag.
func parseToken(f string) (channel.Token, error) {
	if f == "eod" {
		return channel.EOD(), nil
	}
	if h := strings.Index(f, "#"); h >= 0 {
		v, err := parseWord(f[:h])
		if err != nil {
			return channel.Token{}, err
		}
		t, err := parseTag(f[h+1:])
		if err != nil {
			return channel.Token{}, err
		}
		return channel.Token{Data: v, Tag: t}, nil
	}
	v, err := parseWord(f)
	if err != nil {
		return channel.Token{}, err
	}
	return channel.Data(v), nil
}

func (np *netParser) parseSink(ln int, fields []string) {
	if len(fields) == 0 {
		np.diags.add(ln, "sink needs a name")
		return
	}
	name := fields[0]
	if !np.declareName(ln, name, kindSink) {
		return
	}
	switch {
	case len(fields) == 1:
		np.sinkDecls = append(np.sinkDecls, sinkDecl{line: ln, name: name, mode: "eods", n: 1})
	case len(fields) == 3 && fields[1] == "count":
		n, err := strconv.Atoi(fields[2])
		if err != nil || n <= 0 {
			np.diags.add(ln, "bad sink count %q", fields[2])
			return
		}
		np.sinkDecls = append(np.sinkDecls, sinkDecl{line: ln, name: name, mode: "count", n: n})
	case len(fields) == 3 && fields[1] == "eods":
		n, err := strconv.Atoi(fields[2])
		if err != nil || n <= 0 {
			np.diags.add(ln, "bad sink eods %q", fields[2])
			return
		}
		np.sinkDecls = append(np.sinkDecls, sinkDecl{line: ln, name: name, mode: "eods", n: n})
	default:
		np.diags.add(ln, "bad sink declaration")
	}
}

func (np *netParser) parseScratchpad(ln int, line string) {
	spec := line
	var image []isa.Word
	if colon := strings.Index(line, ":"); colon >= 0 {
		spec = line[:colon]
		for _, f := range strings.Fields(line[colon+1:]) {
			w, err := parseWord(f)
			if err != nil {
				np.diags.add(ln, "%v", err)
				return
			}
			image = append(image, w)
		}
	}
	fields := strings.Fields(spec)
	if len(fields) < 3 {
		np.diags.add(ln, "scratchpad needs name and size")
		return
	}
	name := fields[1]
	if !np.declareName(ln, name, kindMem) {
		return
	}
	size, err := strconv.Atoi(fields[2])
	if err != nil || size <= 0 {
		np.diags.add(ln, "bad scratchpad size %q", fields[2])
		return
	}
	// On-fabric scratchpads are small by definition; reject sizes that
	// could only be a typo (or a hostile input).
	if size > maxScratchpadWords {
		np.diags.add(ln, "scratchpad size %d exceeds the %d-word fabric limit", size, maxScratchpadWords)
		return
	}
	d := spDecl{line: ln, name: name, size: size, image: image}
	for i := 3; i+1 < len(fields); i += 2 {
		v, err := strconv.Atoi(fields[i+1])
		if err != nil || v < 0 {
			np.diags.add(ln, "bad scratchpad option value %q", fields[i+1])
			return
		}
		switch fields[i] {
		case "lat":
			d.lat = v
		default:
			np.diags.add(ln, "unknown scratchpad option %q", fields[i])
			return
		}
	}
	if (len(fields)-3)%2 != 0 {
		np.diags.add(ln, "scratchpad options must be key value pairs")
		return
	}
	if len(image) > size {
		np.diags.add(ln, "scratchpad %s: %d-word image exceeds %d-word size", name, len(image), size)
		return
	}
	np.spDecls = append(np.spDecls, d)
}

func (np *netParser) parsePlace(ln int, fields []string) {
	if len(fields) != 3 {
		np.diags.add(ln, "place needs name x y")
		return
	}
	x, err1 := strconv.Atoi(fields[1])
	y, err2 := strconv.Atoi(fields[2])
	if err1 != nil || err2 != nil {
		np.diags.add(ln, "bad coordinates")
		return
	}
	np.places = append(np.places, placement{name: fields[0], x: x, y: y, line: ln})
}

func (np *netParser) parseWire(ln int, fields []string) {
	// wire a.p -> b.q [cap N] [lat N]
	if len(fields) < 3 || fields[1] != "->" {
		np.diags.add(ln, "wire syntax: wire src.port -> dst.port [cap N] [lat N]")
		return
	}
	w := wireDecl{line: ln, capacity: -1, lat: -1}
	var ok bool
	if w.srcElem, w.srcPort, ok = splitPort(fields[0]); !ok {
		np.diags.add(ln, "bad endpoint %q", fields[0])
		return
	}
	if w.dstElem, w.dstPort, ok = splitPort(fields[2]); !ok {
		np.diags.add(ln, "bad endpoint %q", fields[2])
		return
	}
	for i := 3; i+1 < len(fields); i += 2 {
		v, err := strconv.Atoi(fields[i+1])
		if err != nil {
			np.diags.add(ln, "bad wire option value %q", fields[i+1])
			return
		}
		switch fields[i] {
		case "cap":
			// Validated here, not in the validate phase: -1 is the
			// internal "use the fabric default" sentinel, so an explicit
			// negative must not survive parsing.
			if v < 1 {
				np.diags.add(ln, "bad wire capacity %d (must be >= 1)", v)
				return
			}
			w.capacity = v
		case "lat":
			if v < 0 {
				np.diags.add(ln, "bad wire latency %d (must be >= 0)", v)
				return
			}
			w.lat = v
		default:
			np.diags.add(ln, "unknown wire option %q", fields[i])
			return
		}
	}
	np.wires = append(np.wires, w)
}

func splitPort(s string) (elem, port string, ok bool) {
	dot := strings.LastIndex(s, ".")
	if dot <= 0 || dot == len(s)-1 {
		return "", "", false
	}
	return s[:dot], s[dot+1:], true
}

// parsePEBlock parses one pe/pcpe block. Optional key=value options on
// the header line override the PE configuration, e.g.
//
//	pe sched insts=32 preds=16
//
// Recognized keys: insts (trigger pool), preds, regs, in, out.
func (np *netParser) parsePEBlock(ln int, kind, name string, opts []string, body string) {
	if !np.declareName(ln, name, map[string]elemKind{"pe": kindPE, "pcpe": kindPCPE}[kind]) {
		return
	}
	d := &peDecl{line: ln, kind: kind, name: name}
	np.pesByName[name] = d
	np.peDecls = append(np.peDecls, d)
	if kind == "pe" {
		cfg := np.tiaCfg
		for _, opt := range opts {
			eq := strings.Index(opt, "=")
			if eq < 0 {
				np.diags.add(ln, "bad PE option %q (want key=value)", opt)
				return
			}
			v, err := strconv.Atoi(opt[eq+1:])
			if err != nil || v < 1 {
				np.diags.add(ln, "bad PE option value %q", opt)
				return
			}
			switch opt[:eq] {
			case "insts":
				cfg.MaxInsts = v
			case "preds":
				cfg.NumPreds = v
			case "regs":
				cfg.NumRegs = v
			case "in":
				cfg.NumIn = v
			case "out":
				cfg.NumOut = v
			default:
				np.diags.add(ln, "unknown PE option %q", opt[:eq])
				return
			}
		}
		d.cfg = cfg
		prog, err := ParseTIA(name, body)
		if err != nil {
			np.diags.add(0, "%v", err)
			return
		}
		d.tia = prog
		return
	}
	if len(opts) > 0 {
		np.diags.add(ln, "pcpe blocks take no options")
		return
	}
	prog, err := ParsePC(name, body)
	if err != nil {
		np.diags.add(0, "%v", err)
		return
	}
	d.pc = prog
}

// validate runs the structural checks that need the whole file: PE
// program validation against their configurations (register, predicate
// and channel indices), placement and wire endpoint existence, port
// resolution with bounds checks, double-connection detection, and
// channel parameter sanity. It returns the resource Census used for
// admission; diagnostics accumulate in np.diags.
func (np *netParser) validate() Census {
	var c Census

	// PE programs: building the processing element validates the program
	// against its configuration (isa.Config.ValidateProgram) and is
	// bounded small by isa.Config.CheckLimits, so it is safe pre-admission.
	for _, d := range np.peDecls {
		switch {
		case d.tia != nil:
			proc, err := d.tia.Build(d.cfg)
			if err != nil {
				np.diags.add(0, "%v", err)
				continue
			}
			d.tiaProc = proc
			c.Instructions += len(proc.Program())
		case d.pc != nil:
			proc, err := d.pc.Build(np.pcCfg)
			if err != nil {
				np.diags.add(0, "%v", err)
				continue
			}
			d.pcProc = proc
			c.Instructions += len(proc.Program())
		}
	}

	for _, pl := range np.places {
		if _, ok := np.names[pl.name]; !ok {
			np.diags.add(pl.line, "place of unknown element %q", pl.name)
		}
	}

	// Wires: endpoint existence, port resolution (with numeric bounds),
	// single-producer/single-consumer, channel parameter sanity.
	usedOut := map[string]int{} // "elem.port" -> first line
	usedIn := map[string]int{}
	for i := range np.wires {
		w := &np.wires[i]
		srcKind, ok := np.names[w.srcElem]
		if !ok {
			np.diags.add(w.line, "wire from unknown element %q", w.srcElem)
			continue
		}
		dstKind, ok := np.names[w.dstElem]
		if !ok {
			np.diags.add(w.line, "wire to unknown element %q", w.dstElem)
			continue
		}
		srcIdx, err := np.resolveOutPort(srcKind, w.srcElem, w.srcPort)
		if err != nil {
			np.diags.add(w.line, "%v", err)
			continue
		}
		dstIdx, err := np.resolveInPort(dstKind, w.dstElem, w.dstPort)
		if err != nil {
			np.diags.add(w.line, "%v", err)
			continue
		}
		if srcIdx < 0 || dstIdx < 0 {
			// Port belongs to a PE whose program failed to parse; that
			// diagnostic is already reported.
			continue
		}
		if w.capacity != -1 && w.capacity < 1 {
			np.diags.add(w.line, "bad wire capacity %d (must be >= 1)", w.capacity)
			continue
		}
		if w.capacity > MaxChannelCap {
			// Channel buffers are allocated eagerly; an unbounded cap is a
			// one-line memory bomb.
			np.diags.add(w.line, "wire capacity %d exceeds the %d-token fabric limit", w.capacity, MaxChannelCap)
			continue
		}
		if w.lat != -1 && w.lat < 0 {
			np.diags.add(w.line, "bad wire latency %d (must be >= 0)", w.lat)
			continue
		}
		outKey := fmt.Sprintf("%s.%d", w.srcElem, srcIdx)
		if first, dup := usedOut[outKey]; dup {
			np.diags.add(w.line, "output %s.%s already connected (line %d)", w.srcElem, w.srcPort, first)
			continue
		}
		inKey := fmt.Sprintf("%s.%d", w.dstElem, dstIdx)
		if first, dup := usedIn[inKey]; dup {
			np.diags.add(w.line, "input %s.%s already connected (line %d)", w.dstElem, w.dstPort, first)
			continue
		}
		usedOut[outKey] = w.line
		usedIn[inKey] = w.line
		w.srcIdx, w.dstIdx = srcIdx, dstIdx

		capacity := w.capacity
		if capacity < 0 {
			capacity = np.fabCfg.ChannelCapacity
			if capacity < 1 {
				capacity = 4 // fabric.New's clamp of an unset default
			}
		}
		c.Channels++
		c.ChannelTokens += capacity
	}

	c.Sources = len(np.srcDecls)
	c.Sinks = len(np.sinkDecls)
	c.Scratchpads = len(np.spDecls)
	for _, d := range np.peDecls {
		if d.kind == "pe" {
			c.PEs++
		} else {
			c.PCPEs++
		}
	}
	c.Elements = c.Sources + c.Sinks + c.Scratchpads + c.PEs + c.PCPEs
	for _, d := range np.srcDecls {
		c.SourceTokens += len(d.toks)
	}
	for _, d := range np.spDecls {
		c.ScratchpadWords += d.size
	}
	return c
}

// resolveOutPort maps a named or numeric output port to its index. A
// negative index with nil error means "unresolvable because an earlier
// diagnostic already covers it".
func (np *netParser) resolveOutPort(kind elemKind, elem, port string) (int, error) {
	switch kind {
	case kindPE, kindPCPE:
		d := np.pesByName[elem]
		if d.tia != nil {
			if i, ok := d.tia.OutIndex(port); ok {
				return i, nil
			}
			return 0, fmt.Errorf("pe %q has no output %q", elem, port)
		}
		if d.pc != nil {
			if i, ok := d.pc.OutIndex(port); ok {
				return i, nil
			}
			return 0, fmt.Errorf("pcpe %q has no output %q", elem, port)
		}
		return -1, nil // program failed to parse; already diagnosed
	case kindMem:
		switch port {
		case "rdata":
			return mem.PortReadData, nil
		case "wack":
			return mem.PortWriteAck, nil
		}
		return 0, fmt.Errorf("scratchpad %q has no output %q (use rdata/wack)", elem, port)
	case kindSource:
		if n, err := strconv.Atoi(port); err == nil {
			if n != 0 {
				return 0, fmt.Errorf("source %q: output index %d out of range (only output 0 exists)", elem, n)
			}
			return 0, nil
		}
		return 0, fmt.Errorf("element %q: bad output port %q", elem, port)
	default: // kindSink
		return 0, fmt.Errorf("element %q has no outputs", elem)
	}
}

func (np *netParser) resolveInPort(kind elemKind, elem, port string) (int, error) {
	switch kind {
	case kindPE, kindPCPE:
		d := np.pesByName[elem]
		if d.tia != nil {
			if i, ok := d.tia.InIndex(port); ok {
				return i, nil
			}
			return 0, fmt.Errorf("pe %q has no input %q", elem, port)
		}
		if d.pc != nil {
			if i, ok := d.pc.InIndex(port); ok {
				return i, nil
			}
			return 0, fmt.Errorf("pcpe %q has no input %q", elem, port)
		}
		return -1, nil
	case kindMem:
		switch port {
		case "raddr":
			return mem.PortReadAddr, nil
		case "waddr":
			return mem.PortWriteAddr, nil
		case "wdata":
			return mem.PortWriteData, nil
		}
		return 0, fmt.Errorf("scratchpad %q has no input %q (use raddr/waddr/wdata)", elem, port)
	case kindSink:
		if n, err := strconv.Atoi(port); err == nil {
			if n != 0 {
				return 0, fmt.Errorf("sink %q: input index %d out of range (only input 0 exists)", elem, n)
			}
			return 0, nil
		}
		return 0, fmt.Errorf("element %q: bad input port %q", elem, port)
	default: // kindSource
		return 0, fmt.Errorf("element %q has no inputs", elem)
	}
}

// build constructs the fabric from validated declarations using only
// error-returning construction APIs; a failure here is either a
// half-connected fabric (reported as Diagnostics and discarded) or an
// internal inconsistency.
func (np *netParser) build() (*Netlist, error) {
	n := &Netlist{
		Sources: map[string]*fabric.Source{},
		Sinks:   map[string]*fabric.Sink{},
		PEs:     map[string]*pe.PE{},
		PCPEs:   map[string]*pcpe.PE{},
		Mems:    map[string]*mem.Scratchpad{},
	}
	f := fabric.New(np.fabCfg)
	n.Fabric = f
	elems := map[string]fabric.Element{}

	addElem := func(name string, e fabric.Element) error {
		if err := f.TryAdd(e); err != nil {
			return Diagnostics{{Msg: err.Error()}}
		}
		elems[name] = e
		return nil
	}

	for _, d := range np.srcDecls {
		s := fabric.NewSource(d.name, d.toks)
		if err := addElem(d.name, s); err != nil {
			return nil, err
		}
		n.Sources[d.name] = s
		parts := make([]string, len(d.toks))
		for i, t := range d.toks {
			parts[i] = t.String()
		}
		n.fpRecs = append(n.fpRecs, fmt.Sprintf("source %s : %s", d.name, strings.Join(parts, " ")))
	}
	for _, d := range np.spDecls {
		m, err := mem.NewChecked(d.name, d.size)
		if err != nil {
			return nil, Diagnostics{{Line: d.line, Msg: err.Error()}}
		}
		m.SetReadLatency(d.lat)
		if d.image != nil {
			if err := m.TryLoad(d.image); err != nil {
				return nil, Diagnostics{{Line: d.line, Msg: err.Error()}}
			}
		}
		if err := addElem(d.name, m); err != nil {
			return nil, err
		}
		n.Mems[d.name] = m
		imgParts := make([]string, len(d.image))
		for i, w := range d.image {
			imgParts[i] = fmt.Sprintf("%d", w)
		}
		n.fpRecs = append(n.fpRecs,
			fmt.Sprintf("scratchpad %s %d lat %d : %s", d.name, d.size, m.ReadLatency(), strings.Join(imgParts, " ")))
	}
	for _, d := range np.peDecls {
		switch {
		case d.tiaProc != nil:
			if err := addElem(d.name, d.tiaProc); err != nil {
				return nil, err
			}
			n.PEs[d.name] = d.tiaProc
			n.fpRecs = append(n.fpRecs,
				fmt.Sprintf("pe %s cfg=%+v init=%s\n%s", d.name, d.cfg, initRecord(d.tia.RegInit, d.tia.PredInit), FormatTIA(d.tiaProc.Program())))
		case d.pcProc != nil:
			if err := addElem(d.name, d.pcProc); err != nil {
				return nil, err
			}
			n.PCPEs[d.name] = d.pcProc
			n.fpRecs = append(n.fpRecs,
				fmt.Sprintf("pcpe %s cfg=%+v init=%s\n%s", d.name, np.pcCfg, initRecord(d.pc.RegInit, nil), FormatPC(d.pcProc.Program())))
		}
	}
	for _, d := range np.sinkDecls {
		var s *fabric.Sink
		switch d.mode {
		case "count":
			s = fabric.NewCountingSink(d.name, d.n)
			n.fpRecs = append(n.fpRecs, fmt.Sprintf("sink %s count %d", d.name, d.n))
		default:
			if d.n == 1 {
				s = fabric.NewSink(d.name)
			} else {
				s = fabric.NewMultiEODSink(d.name, d.n)
			}
			n.fpRecs = append(n.fpRecs, fmt.Sprintf("sink %s eods %d", d.name, d.n))
		}
		if err := addElem(d.name, s); err != nil {
			return nil, err
		}
		n.Sinks[d.name] = s
	}

	for _, pl := range np.places {
		f.Place(elems[pl.name], pl.x, pl.y)
	}

	for _, w := range np.wires {
		src, _ := elems[w.srcElem].(fabric.OutPort)
		dst, _ := elems[w.dstElem].(fabric.InPort)
		var ch *channel.Channel
		var err error
		if w.capacity < 0 && w.lat < 0 {
			ch, err = f.TryWire(src, w.srcIdx, dst, w.dstIdx) // placement-aware default
		} else {
			capacity, lat := w.capacity, w.lat
			if capacity < 0 {
				capacity = np.fabCfg.ChannelCapacity
			}
			if lat < 0 {
				lat = np.fabCfg.ChannelLatency
			}
			ch, err = f.TryWireOpt(src, w.srcIdx, dst, w.dstIdx, capacity, lat)
		}
		if err != nil {
			return nil, Diagnostics{{Line: w.line, Msg: fmt.Sprintf("bad wire: %v", err)}}
		}
		// The effective capacity/latency (after defaults and placement) is
		// what matters for behaviour, so fingerprint those, not the syntax.
		n.fpRecs = append(n.fpRecs, fmt.Sprintf("wire %s.%d -> %s.%d cap %d lat %d",
			w.srcElem, w.srcIdx, w.dstElem, w.dstIdx, ch.Cap(), ch.Latency()))
	}

	// Dangling-connection check (program references an unwired channel):
	// surface it at parse time rather than at first Run.
	if err := f.Validate(); err != nil {
		return nil, Diagnostics{{Msg: err.Error()}}
	}
	return n, nil
}
