package litmus

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/memmodel"
)

// Parse reads a litmus test from its textual representation. The format is
// a small, line-oriented dialect:
//
//	name: dekker-write-replacement
//	# comments start with '#'
//	init: x=0 y=0
//	thread P0:
//	  a0 = xchg x, 1
//	  r0 = load y
//	thread P1:
//	  a1 = xchg y, 1
//	  r1 = load x
//	exists (P0:r0=0 /\ P1:r1=0)
//
// Supported instructions:
//
//	store <loc>, <val>        plain store
//	<reg> = load <loc>        plain load
//	mfence                    full barrier
//	<reg> = xchg <loc>, <val> atomic exchange (RMW)
//	<reg> = xadd <loc>, <val> atomic fetch-and-add (RMW)
//	<reg> = tas <loc>         atomic test-and-set (RMW)
//
// Locations are symbolic names; they are numbered in order of first
// appearance, so using x, y, z, ... matches the package's address naming.
// The final line is the condition: exists, ~exists or forall over a
// conjunction of "P<tid>:<reg>=<val>" register terms and "<loc>=<val>"
// final-memory terms. A register term must name a register that a load
// or RMW of thread <tid> writes; a memory term may name any location.
func Parse(src string) (*Test, error) {
	p := &parser{
		test:    &Test{Program: memmodel.NewProgram("")},
		addrs:   map[string]memmodel.Addr{},
		current: -1,
	}
	for lineNo, raw := range strings.Split(src, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if err := p.line(line); err != nil {
			return nil, fmt.Errorf("litmus: line %d: %w", lineNo+1, err)
		}
		if p.haveCond && p.condLine == 0 {
			p.condLine = lineNo + 1
		}
	}
	if p.test.Name == "" {
		return nil, fmt.Errorf("litmus: missing name")
	}
	if len(p.test.Program.Threads) == 0 {
		return nil, fmt.Errorf("litmus: no threads")
	}
	if !p.haveCond {
		return nil, fmt.Errorf("litmus: missing final condition")
	}
	if err := p.test.Program.Validate(); err != nil {
		return nil, err
	}
	for _, term := range p.test.Cond.Terms {
		if !term.IsMemory && !writesRegister(p.test.Program, term.Register) {
			return nil, fmt.Errorf("litmus: line %d: condition term %s: no load or RMW of the program writes %s", p.condLine, term, term.Register)
		}
	}
	return p.test, nil
}

// writesRegister reports whether a load or RMW of the program writes the
// register named "P<tid>:<reg>".
func writesRegister(prog *memmodel.Program, name string) bool {
	thread, reg, _ := strings.Cut(name, ":")
	tid, err := strconv.Atoi(strings.TrimPrefix(thread, "P"))
	if err != nil || tid < 0 || tid >= len(prog.Threads) || thread != "P"+strconv.Itoa(tid) || reg == "" {
		return false
	}
	for _, in := range prog.Threads[tid] {
		if (in.Kind == memmodel.InstrRead || in.Kind == memmodel.InstrRMW) && in.Reg == reg {
			return true
		}
	}
	return false
}

type parser struct {
	test     *Test
	addrs    map[string]memmodel.Addr
	current  int // index of the thread being filled, -1 before the first
	haveCond bool
	condLine int // the line of the condition, once parsed
}

func (p *parser) addr(name string) memmodel.Addr {
	if a, ok := p.addrs[name]; ok {
		return a
	}
	a := memmodel.Addr(len(p.addrs))
	p.addrs[name] = a
	return a
}

func (p *parser) line(line string) error {
	switch {
	case strings.HasPrefix(line, "name:"):
		p.test.Name = strings.TrimSpace(strings.TrimPrefix(line, "name:"))
		p.test.Program.Name = p.test.Name
		return nil
	case strings.HasPrefix(line, "doc:"):
		p.test.Doc = strings.TrimSpace(strings.TrimPrefix(line, "doc:"))
		return nil
	case strings.HasPrefix(line, "init:"):
		return p.parseInit(strings.TrimSpace(strings.TrimPrefix(line, "init:")))
	case strings.HasPrefix(line, "thread"):
		return p.parseThreadHeader(line)
	case strings.HasPrefix(line, "exists") || strings.HasPrefix(line, "~exists") || strings.HasPrefix(line, "forall"):
		return p.parseCondition(line)
	default:
		return p.parseInstr(line)
	}
}

func (p *parser) parseInit(rest string) error {
	for _, field := range strings.Fields(rest) {
		name, val, err := splitAssign(field)
		if err != nil {
			return err
		}
		p.test.Program.SetInit(p.addr(name), memmodel.Value(val))
	}
	return nil
}

func (p *parser) parseThreadHeader(line string) error {
	// "thread P0:" — the numbering must be sequential.
	rest := strings.TrimSpace(strings.TrimPrefix(line, "thread"))
	rest = strings.TrimSuffix(rest, ":")
	rest = strings.TrimSpace(rest)
	if !strings.HasPrefix(rest, "P") {
		return fmt.Errorf("bad thread header %q (want \"thread P<n>:\")", line)
	}
	n, err := strconv.Atoi(rest[1:])
	if err != nil {
		return fmt.Errorf("bad thread number in %q: %v", line, err)
	}
	if n != len(p.test.Program.Threads) {
		return fmt.Errorf("thread P%d declared out of order (expected P%d)", n, len(p.test.Program.Threads))
	}
	p.test.Program.Threads = append(p.test.Program.Threads, memmodel.Thread{})
	p.current = n
	return nil
}

func (p *parser) appendInstr(in memmodel.Instr) error {
	if p.current < 0 {
		return fmt.Errorf("instruction before any thread header")
	}
	p.test.Program.Threads[p.current] = append(p.test.Program.Threads[p.current], in)
	return nil
}

func (p *parser) parseInstr(line string) error {
	if line == "mfence" {
		return p.appendInstr(memmodel.Fence())
	}
	if strings.HasPrefix(line, "store") {
		rest := strings.TrimSpace(strings.TrimPrefix(line, "store"))
		loc, val, err := splitLocVal(rest)
		if err != nil {
			return fmt.Errorf("bad store %q: %v", line, err)
		}
		return p.appendInstr(memmodel.Write(p.addr(loc), memmodel.Value(val)))
	}
	// Remaining forms are "<reg> = <op> ...".
	eq := strings.SplitN(line, "=", 2)
	if len(eq) != 2 {
		return fmt.Errorf("unrecognised instruction %q", line)
	}
	reg := strings.TrimSpace(eq[0])
	rhs := strings.TrimSpace(eq[1])
	switch {
	case strings.HasPrefix(rhs, "load"):
		loc := strings.TrimSpace(strings.TrimPrefix(rhs, "load"))
		if loc == "" {
			return fmt.Errorf("load without location in %q", line)
		}
		return p.appendInstr(memmodel.Read(p.addr(loc), reg))
	case strings.HasPrefix(rhs, "xchg"):
		loc, val, err := splitLocVal(strings.TrimSpace(strings.TrimPrefix(rhs, "xchg")))
		if err != nil {
			return fmt.Errorf("bad xchg %q: %v", line, err)
		}
		return p.appendInstr(memmodel.Exchange(p.addr(loc), reg, memmodel.Value(val)))
	case strings.HasPrefix(rhs, "xadd"):
		loc, val, err := splitLocVal(strings.TrimSpace(strings.TrimPrefix(rhs, "xadd")))
		if err != nil {
			return fmt.Errorf("bad xadd %q: %v", line, err)
		}
		return p.appendInstr(memmodel.FetchAdd(p.addr(loc), reg, memmodel.Value(val)))
	case strings.HasPrefix(rhs, "tas"):
		loc := strings.TrimSpace(strings.TrimPrefix(rhs, "tas"))
		if loc == "" {
			return fmt.Errorf("tas without location in %q", line)
		}
		return p.appendInstr(memmodel.TestAndSet(p.addr(loc), reg))
	default:
		return fmt.Errorf("unrecognised instruction %q", line)
	}
}

func (p *parser) parseCondition(line string) error {
	if p.haveCond {
		return fmt.Errorf("duplicate condition")
	}
	var q Quantifier
	var rest string
	switch {
	case strings.HasPrefix(line, "~exists"):
		q = NotExists
		rest = strings.TrimPrefix(line, "~exists")
	case strings.HasPrefix(line, "exists"):
		q = Exists
		rest = strings.TrimPrefix(line, "exists")
	case strings.HasPrefix(line, "forall"):
		q = Forall
		rest = strings.TrimPrefix(line, "forall")
	default:
		return fmt.Errorf("bad condition %q", line)
	}
	rest = strings.TrimSpace(rest)
	rest = strings.TrimPrefix(rest, "(")
	rest = strings.TrimSuffix(rest, ")")
	var terms []Term
	for _, part := range strings.Split(rest, "/\\") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		term, err := p.parseTerm(part)
		if err != nil {
			return err
		}
		terms = append(terms, term)
	}
	if len(terms) == 0 {
		return fmt.Errorf("condition %q has no terms", line)
	}
	p.test.Cond = Condition{Quantifier: q, Terms: terms}
	p.haveCond = true
	return nil
}

func (p *parser) parseTerm(s string) (Term, error) {
	// Register terms look like "P0:r0=1"; memory terms like "x=1".
	if strings.HasPrefix(s, "P") && strings.Contains(s, ":") {
		name, val, err := splitAssign(s)
		if err != nil {
			return Term{}, err
		}
		return Term{Register: name, Value: memmodel.Value(val)}, nil
	}
	name, val, err := splitAssign(s)
	if err != nil {
		return Term{}, err
	}
	return Term{IsMemory: true, Addr: p.addr(name), Value: memmodel.Value(val)}, nil
}

// splitAssign splits "name=123" into its parts.
func splitAssign(s string) (string, int, error) {
	parts := strings.SplitN(s, "=", 2)
	if len(parts) != 2 {
		return "", 0, fmt.Errorf("bad assignment %q", s)
	}
	v, err := strconv.Atoi(strings.TrimSpace(parts[1]))
	if err != nil {
		return "", 0, fmt.Errorf("bad value in %q: %v", s, err)
	}
	return strings.TrimSpace(parts[0]), v, nil
}

// splitLocVal splits "x, 1" into the location name and value.
func splitLocVal(s string) (string, int, error) {
	parts := strings.SplitN(s, ",", 2)
	if len(parts) != 2 {
		return "", 0, fmt.Errorf("want \"<loc>, <val>\", got %q", s)
	}
	v, err := strconv.Atoi(strings.TrimSpace(parts[1]))
	if err != nil {
		return "", 0, fmt.Errorf("bad value in %q: %v", s, err)
	}
	loc := strings.TrimSpace(parts[0])
	if loc == "" {
		return "", 0, fmt.Errorf("empty location in %q", s)
	}
	return loc, v, nil
}

// Format renders a test back into the textual format accepted by Parse.
// Round-tripping loses Modify functions other than the built-in xchg/xadd
// forms, which is all the format supports.
//
// Locations are renamed canonically, in order of first emission, to the
// package's address alphabet (x, y, z, ...). Since Parse numbers
// locations by first appearance, this makes Format's output a fixed point
// of the parse→format cycle: Parse(Format(t)) always succeeds on a
// formattable test and Format(Parse(Format(t))) == Format(t), no matter
// how t named or numbered its locations. The fuzz harness leans on this
// to check the round trip on arbitrary parser inputs.
func Format(t *Test) string {
	names := map[memmodel.Addr]string{}
	name := func(a memmodel.Addr) string {
		if s, ok := names[a]; ok {
			return s
		}
		s := memmodel.AddrName(memmodel.Addr(len(names)))
		names[a] = s
		return s
	}
	var b strings.Builder
	fmt.Fprintf(&b, "name: %s\n", t.Name)
	if t.Doc != "" {
		fmt.Fprintf(&b, "doc: %s\n", t.Doc)
	}
	if len(t.Program.Init) > 0 {
		b.WriteString("init:")
		for _, a := range t.Program.Addrs() {
			if v, ok := t.Program.Init[a]; ok {
				fmt.Fprintf(&b, " %s=%d", name(a), int(v))
			}
		}
		b.WriteString("\n")
	}
	for ti, thread := range t.Program.Threads {
		fmt.Fprintf(&b, "thread P%d:\n", ti)
		for _, in := range thread {
			switch in.Kind {
			case memmodel.InstrWrite:
				fmt.Fprintf(&b, "  store %s, %d\n", name(in.Addr), int(in.Value))
			case memmodel.InstrRead:
				fmt.Fprintf(&b, "  %s = load %s\n", in.Reg, name(in.Addr))
			case memmodel.InstrFence:
				b.WriteString("  mfence\n")
			case memmodel.InstrRMW:
				// Render as xadd when the modify function behaves like an
				// addition of Value, otherwise as xchg of Value.
				if in.Modify != nil && in.Modify(7) == 7+in.Value && in.Modify(0) == in.Value {
					fmt.Fprintf(&b, "  %s = xadd %s, %d\n", in.Reg, name(in.Addr), int(in.Value))
				} else {
					fmt.Fprintf(&b, "  %s = xchg %s, %d\n", in.Reg, name(in.Addr), int(in.Value))
				}
			}
		}
	}
	// Render the condition with the same canonical location names; the
	// Condition.String method uses the fixed address alphabet instead and
	// would break the round trip for renamed locations.
	parts := make([]string, len(t.Cond.Terms))
	for i, term := range t.Cond.Terms {
		if term.IsMemory {
			parts[i] = fmt.Sprintf("%s=%d", name(term.Addr), int(term.Value))
		} else {
			parts[i] = fmt.Sprintf("%s=%d", term.Register, int(term.Value))
		}
	}
	fmt.Fprintf(&b, "%s (%s)\n", t.Cond.Quantifier, strings.Join(parts, " /\\ "))
	return b.String()
}
