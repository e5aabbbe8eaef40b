package asm

import (
	"fmt"
	"strconv"
	"strings"

	"tia/internal/isa"
	"tia/internal/pe"
)

// TIAProgram is a parsed triggered-instruction program plus its symbol
// tables. Channel names map to port indices in declaration order, which is
// what the netlist layer and hand wiring use.
type TIAProgram struct {
	Name     string
	InNames  []string
	OutNames []string
	Insts    []isa.Instruction

	RegInit  map[int]isa.Word
	PredInit map[int]bool

	ins, outs, regs, preds map[string]int
}

// InIndex resolves an input channel name to its port index.
func (p *TIAProgram) InIndex(name string) (int, bool) {
	i, ok := p.ins[name]
	return i, ok
}

// OutIndex resolves an output channel name to its port index.
func (p *TIAProgram) OutIndex(name string) (int, bool) {
	i, ok := p.outs[name]
	return i, ok
}

// Build instantiates the program on a triggered PE with the given
// configuration and applies declared initial register/predicate values.
func (p *TIAProgram) Build(cfg isa.Config) (*pe.PE, error) {
	proc, err := pe.New(p.Name, cfg, p.Insts)
	if err != nil {
		return nil, err
	}
	for i, v := range p.RegInit {
		if i >= cfg.NumRegs {
			return nil, fmt.Errorf("asm: %s: initial value for r%d but PE has %d registers", p.Name, i, cfg.NumRegs)
		}
		proc.SetReg(i, v)
	}
	for i, v := range p.PredInit {
		if i >= cfg.NumPreds {
			return nil, fmt.Errorf("asm: %s: initial value for p%d but PE has %d predicates", p.Name, i, cfg.NumPreds)
		}
		proc.SetPred(i, v)
	}
	return proc, nil
}

// tiaParser accumulates state while parsing one pe block.
type tiaParser struct {
	prog *TIAProgram
}

// ParseTIA parses the body of one triggered-PE block (the lines between
// "pe NAME" and "end"). Lines hold declarations (in/out/reg/pred) and
// triggered instructions:
//
//	cmp: when !c a.tag==0 b.tag==0 : leu p:sel, a, b ; set c
//
// Instruction grammar: [label:] when CONDS : OP OPERANDS [; ACTION]...
// CONDS are space-separated predicate literals (x, !x), channel readiness
// (chan or chan.tag==N / chan.tag!=N), or the keyword "always". OPERANDS
// list destinations then sources; the opcode's arity determines the split.
// ACTIONs are "deq chan", "set pred", "clr pred".
func ParseTIA(name, body string) (*TIAProgram, error) {
	tp := &tiaParser{prog: &TIAProgram{
		Name:     name,
		RegInit:  map[int]isa.Word{},
		PredInit: map[int]bool{},
		ins:      map[string]int{},
		outs:     map[string]int{},
		regs:     map[string]int{},
		preds:    map[string]int{},
	}}
	for i, raw := range strings.Split(body, "\n") {
		line := stripComment(raw)
		if line == "" {
			continue
		}
		if err := tp.parseLine(i+1, line); err != nil {
			return nil, fmt.Errorf("pe %s: %w", name, err)
		}
	}
	if len(tp.prog.Insts) == 0 {
		return nil, fmt.Errorf("pe %s: no instructions", name)
	}
	return tp.prog, nil
}

func (tp *tiaParser) parseLine(ln int, line string) error {
	fields := strings.Fields(line)
	switch fields[0] {
	case "in":
		return tp.declChannels(ln, fields[1:], tp.prog.ins, &tp.prog.InNames)
	case "out":
		return tp.declChannels(ln, fields[1:], tp.prog.outs, &tp.prog.OutNames)
	case "reg":
		return tp.declReg(ln, line)
	case "pred":
		return tp.declPred(ln, line)
	default:
		return tp.parseInst(ln, line)
	}
}

func (tp *tiaParser) checkFresh(ln int, n string) error {
	if !ident(n) {
		return srcError(ln, "bad identifier %q", n)
	}
	for _, m := range []map[string]int{tp.prog.ins, tp.prog.outs, tp.prog.regs, tp.prog.preds} {
		if _, dup := m[n]; dup {
			return srcError(ln, "name %q already declared", n)
		}
	}
	return nil
}

func (tp *tiaParser) declChannels(ln int, names []string, table map[string]int, order *[]string) error {
	if len(names) == 0 {
		return srcError(ln, "channel declaration needs at least one name")
	}
	for _, n := range names {
		if err := tp.checkFresh(ln, n); err != nil {
			return err
		}
		table[n] = len(*order)
		*order = append(*order, n)
	}
	return nil
}

func (tp *tiaParser) declReg(ln int, line string) error {
	rest := strings.TrimSpace(strings.TrimPrefix(line, "reg"))
	if eq := strings.Index(rest, "="); eq >= 0 {
		name := strings.TrimSpace(rest[:eq])
		if err := tp.checkFresh(ln, name); err != nil {
			return err
		}
		v, err := parseWord(strings.TrimSpace(rest[eq+1:]))
		if err != nil {
			return srcError(ln, "%v", err)
		}
		idx := len(tp.prog.regs)
		tp.prog.regs[name] = idx
		tp.prog.RegInit[idx] = v
		return nil
	}
	for _, n := range strings.Fields(rest) {
		if err := tp.checkFresh(ln, n); err != nil {
			return err
		}
		tp.prog.regs[n] = len(tp.prog.regs)
	}
	return nil
}

func (tp *tiaParser) declPred(ln int, line string) error {
	rest := strings.TrimSpace(strings.TrimPrefix(line, "pred"))
	if eq := strings.Index(rest, "="); eq >= 0 {
		name := strings.TrimSpace(rest[:eq])
		if err := tp.checkFresh(ln, name); err != nil {
			return err
		}
		val := strings.TrimSpace(rest[eq+1:])
		if val != "0" && val != "1" {
			return srcError(ln, "predicate initializer must be 0 or 1, got %q", val)
		}
		idx := len(tp.prog.preds)
		tp.prog.preds[name] = idx
		tp.prog.PredInit[idx] = val == "1"
		return nil
	}
	for _, n := range strings.Fields(rest) {
		if err := tp.checkFresh(ln, n); err != nil {
			return err
		}
		tp.prog.preds[n] = len(tp.prog.preds)
	}
	return nil
}

// resolve helpers; channel and register names may also be positional
// (in0, out3, r2, p5).
func positional(prefix, s string) (int, bool) {
	if !strings.HasPrefix(s, prefix) {
		return 0, false
	}
	n, err := strconv.Atoi(s[len(prefix):])
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

func (tp *tiaParser) inChan(s string) (int, bool) {
	if i, ok := tp.prog.ins[s]; ok {
		return i, true
	}
	return positional("in", s)
}

func (tp *tiaParser) outChan(s string) (int, bool) {
	if i, ok := tp.prog.outs[s]; ok {
		return i, true
	}
	return positional("out", s)
}

func (tp *tiaParser) reg(s string) (int, bool) {
	if i, ok := tp.prog.regs[s]; ok {
		return i, true
	}
	if _, taken := tp.prog.ins[s]; taken {
		return 0, false
	}
	return positional("r", s)
}

func (tp *tiaParser) pred(s string) (int, bool) {
	if i, ok := tp.prog.preds[s]; ok {
		return i, true
	}
	return positional("p", s)
}

func (tp *tiaParser) parseInst(ln int, line string) error {
	whenIdx := indexWord(line, "when")
	if whenIdx < 0 {
		return srcError(ln, "expected declaration or instruction, got %q", line)
	}
	label := strings.TrimSpace(line[:whenIdx])
	label = strings.TrimSuffix(label, ":")
	if label != "" && !ident(label) {
		return srcError(ln, "bad label %q", label)
	}
	rest := line[whenIdx+len("when"):]
	colon := strings.Index(rest, ":")
	if colon < 0 {
		return srcError(ln, "missing ':' after trigger")
	}
	condsText, bodyText := rest[:colon], rest[colon+1:]

	inst := isa.Instruction{Label: label}
	if err := tp.parseTrigger(ln, condsText, &inst.Trigger); err != nil {
		return err
	}

	parts := strings.Split(bodyText, ";")
	if err := tp.parseOperation(ln, strings.TrimSpace(parts[0]), &inst); err != nil {
		return err
	}
	for _, act := range parts[1:] {
		if err := tp.parseAction(ln, strings.TrimSpace(act), &inst); err != nil {
			return err
		}
	}
	tp.prog.Insts = append(tp.prog.Insts, inst)
	return nil
}

func (tp *tiaParser) parseTrigger(ln int, text string, tr *isa.Trigger) error {
	for _, tok := range strings.Fields(text) {
		if tok == "always" {
			continue
		}
		if strings.HasPrefix(tok, "!") {
			p, ok := tp.pred(tok[1:])
			if !ok {
				return srcError(ln, "unknown predicate %q", tok[1:])
			}
			tr.Preds = append(tr.Preds, isa.NotP(p))
			continue
		}
		if dot := strings.Index(tok, ".tag"); dot >= 0 {
			chName := tok[:dot]
			ch, ok := tp.inChan(chName)
			if !ok {
				return srcError(ln, "unknown input channel %q", chName)
			}
			cmp := tok[dot+len(".tag"):]
			switch {
			case strings.HasPrefix(cmp, "=="):
				tag, err := parseTag(cmp[2:])
				if err != nil {
					return srcError(ln, "%v", err)
				}
				tr.Inputs = append(tr.Inputs, isa.InTagEq(ch, tag))
			case strings.HasPrefix(cmp, "!="):
				tag, err := parseTag(cmp[2:])
				if err != nil {
					return srcError(ln, "%v", err)
				}
				tr.Inputs = append(tr.Inputs, isa.InTagNe(ch, tag))
			default:
				return srcError(ln, "bad tag condition %q", tok)
			}
			continue
		}
		if ch, ok := tp.inChan(tok); ok {
			tr.Inputs = append(tr.Inputs, isa.InReady(ch))
			continue
		}
		if p, ok := tp.pred(tok); ok {
			tr.Preds = append(tr.Preds, isa.P(p))
			continue
		}
		return srcError(ln, "unknown trigger condition %q", tok)
	}
	return nil
}

func (tp *tiaParser) parseOperation(ln int, text string, inst *isa.Instruction) error {
	if text == "" {
		return srcError(ln, "missing operation")
	}
	sp := strings.IndexAny(text, " \t")
	mnemonic, operandText := text, ""
	if sp >= 0 {
		mnemonic, operandText = text[:sp], text[sp+1:]
	}
	op, ok := isa.OpcodeByName(mnemonic)
	if !ok {
		return srcError(ln, "unknown opcode %q", mnemonic)
	}
	inst.Op = op
	operands := splitOperands(operandText)
	arity := op.Arity()
	if len(operands) < arity {
		return srcError(ln, "%s needs %d sources, got %d operands", mnemonic, arity, len(operands))
	}
	ndst := len(operands) - arity
	for _, d := range operands[:ndst] {
		if d == "_" {
			continue
		}
		dst, err := tp.parseDst(ln, d)
		if err != nil {
			return err
		}
		inst.Dsts = append(inst.Dsts, dst)
	}
	for i, s := range operands[ndst:] {
		src, err := tp.parseSrc(ln, s)
		if err != nil {
			return err
		}
		inst.Srcs[i] = src
	}
	return nil
}

func (tp *tiaParser) parseDst(ln int, s string) (isa.Dst, error) {
	if strings.HasPrefix(s, "p:") {
		p, ok := tp.pred(s[2:])
		if !ok {
			return isa.Dst{}, srcError(ln, "unknown predicate %q", s[2:])
		}
		return isa.DPred(p), nil
	}
	name, tag := s, isa.TagData
	if h := strings.Index(s, "#"); h >= 0 {
		t, err := parseTag(s[h+1:])
		if err != nil {
			return isa.Dst{}, srcError(ln, "%v", err)
		}
		name, tag = s[:h], t
	}
	if ch, ok := tp.outChan(name); ok {
		return isa.DOut(ch, tag), nil
	}
	if tag != isa.TagData {
		return isa.Dst{}, srcError(ln, "tag on non-channel destination %q", s)
	}
	if r, ok := tp.reg(name); ok {
		return isa.DReg(r), nil
	}
	return isa.Dst{}, srcError(ln, "unknown destination %q", s)
}

func (tp *tiaParser) parseSrc(ln int, s string) (isa.Src, error) {
	if strings.HasPrefix(s, "#") {
		v, err := parseWord(s[1:])
		if err != nil {
			return isa.Src{}, srcError(ln, "%v", err)
		}
		return isa.Imm(v), nil
	}
	if strings.HasSuffix(s, ".tag") {
		ch, ok := tp.inChan(strings.TrimSuffix(s, ".tag"))
		if !ok {
			return isa.Src{}, srcError(ln, "unknown input channel %q", s)
		}
		return isa.InTag(ch), nil
	}
	if ch, ok := tp.inChan(s); ok {
		return isa.In(ch), nil
	}
	if r, ok := tp.reg(s); ok {
		return isa.Reg(r), nil
	}
	return isa.Src{}, srcError(ln, "unknown source %q", s)
}

func (tp *tiaParser) parseAction(ln int, act string, inst *isa.Instruction) error {
	fields := strings.Fields(act)
	if len(fields) != 2 {
		return srcError(ln, "bad action %q", act)
	}
	switch fields[0] {
	case "deq":
		ch, ok := tp.inChan(fields[1])
		if !ok {
			return srcError(ln, "unknown input channel %q", fields[1])
		}
		inst.Deq = append(inst.Deq, ch)
	case "set":
		p, ok := tp.pred(fields[1])
		if !ok {
			return srcError(ln, "unknown predicate %q", fields[1])
		}
		inst.PredUpdates = append(inst.PredUpdates, isa.SetP(p))
	case "clr":
		p, ok := tp.pred(fields[1])
		if !ok {
			return srcError(ln, "unknown predicate %q", fields[1])
		}
		inst.PredUpdates = append(inst.PredUpdates, isa.ClrP(p))
	default:
		return srcError(ln, "unknown action %q", fields[0])
	}
	return nil
}
