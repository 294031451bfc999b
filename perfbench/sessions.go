package main

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/server/client"
	"repro/internal/sexpr"
	"repro/internal/uid"
	"repro/internal/value"
)

// model is the part of a session that keeps the generator's model in
// step with acknowledged results.
type model struct {
	e   *env
	id  int
	mod *sessModel
}

func (m model) made(o op, id uid.UID) {
	m.e.hs[o.h].addLeaf(id)
	m.mod.created++
}

func (m model) removed(o op) {
	m.mod.deleted = append(m.mod.deleted, m.e.hs[o.h].removeLeaf(o.slot))
}

// unsure records a failed op that may have taken effect: its hierarchy
// leaves the exact checks, and a leaf it may have deleted leaves the
// model.
func (m model) unsure(o op) {
	switch o.kind {
	case opMake:
		m.mod.dirty[o.h] = true
	case opDelete:
		m.e.hs[o.h].removeLeaf(o.slot)
		m.mod.dirty[o.h] = true
	case opShare:
		m.mod.dirty[m.e.sh.candH[o.slot][o.slot2]] = true
		m.e.sh.on[o.slot][o.slot2] = !m.e.sh.on[o.slot][o.slot2]
	}
}

// components is the model's size of components-of a hierarchy root;
// only the hierarchy's owner (or, with shared parts, session 0) may ask.
func (m model) components(h int) int {
	n := len(m.e.hs[h].inner) - 1 + len(m.e.hs[h].leaves)
	if sh := m.e.sh; sh != nil {
		for i := range sh.on {
			for j, on := range sh.on[i] {
				if on && sh.candH[i][j] == h {
					n++
				}
			}
		}
	}
	return n
}

func ref(id uid.UID) string { return "#" + id.String() }

// parseRef reads a "#class:serial" reply.
func parseRef(s string) (uid.UID, error) {
	c, sn, ok := strings.Cut(strings.TrimPrefix(strings.TrimSpace(s), "#"), ":")
	if !ok {
		return uid.Nil, fmt.Errorf("not a reference: %q", s)
	}
	ci, err := strconv.ParseUint(c, 10, 32)
	if err != nil {
		return uid.Nil, fmt.Errorf("not a reference: %q", s)
	}
	si, err := strconv.ParseUint(sn, 10, 64)
	if err != nil {
		return uid.Nil, fmt.Errorf("not a reference: %q", s)
	}
	return uid.UID{Class: uid.ClassID(ci), Serial: si}, nil
}

// program renders an op as one s-expression program: one request, one
// reply. Writes are whole (begin) … (commit) transactions.
func (m model) program(o op) string {
	hs := m.e.hs
	switch o.kind {
	case opSet:
		return fmt.Sprintf("(begin) (set %s Weight %d) (commit)", ref(hs[o.h].inner[o.slot]), o.val)
	case opMake:
		return fmt.Sprintf(`(begin) (define n (make Part :Name "leaf" :Weight %d :parent ((%s Subparts)))) (commit) n`,
			o.val, ref(hs[o.h].attach[o.slot]))
	case opDelete:
		return fmt.Sprintf("(begin) (delete %s) (commit)", ref(hs[o.h].leaves[o.slot]))
	case opCross:
		return fmt.Sprintf("(begin) (set %s Weight %d) (set %s Weight %d) (commit)",
			ref(hs[o.h].inner[o.slot]), o.val, ref(hs[o.h2].inner[o.slot2]), o.val)
	case opRead:
		return fmt.Sprintf("(components-of %s)", ref(hs[o.h].root))
	case opShare:
		verb := "attach"
		if m.e.sh.on[o.slot][o.slot2] {
			verb = "detach"
		}
		return fmt.Sprintf("(begin) (%s %s Shared %s) (commit)", verb, ref(m.e.sh.cands[o.slot][o.slot2]), ref(m.e.sh.parts[o.slot]))
	}
	var q string
	switch o.q {
	case qComponents:
		q = "(components-of " + ref(hs[o.h].root) + ")"
	case qAncestors:
		q = "(ancestors-of " + ref(hs[o.h].leaves[o.slot]) + ")"
	case qRoots:
		q = "(roots-of " + ref(hs[o.h].leaves[o.slot]) + ")"
	case qComponentOf:
		q = "(component-of " + ref(hs[o.h].leaves[o.slot]) + " " + ref(hs[o.h2].root) + ")"
	case qSharedComponentOf:
		q = "(shared-component-of " + ref(m.e.sh.parts[o.slot]) + " " + ref(m.e.sh.cands[o.slot][o.slot2]) + ")"
	case qParents:
		q = "(parents-of " + ref(m.e.sh.parts[o.slot]) + ")"
	}
	if o.snap {
		return "(snapshot begin) " + q + " (snapshot release)"
	}
	return q
}

// settle applies an acknowledged op to the model and checks the reply
// where the model predicts it exactly. refs is the number of references
// in the reply (-1: none to check), made the created UID, yes a boolean
// reply.
func (m model) settle(o op, refs int, made uid.UID, yes bool) {
	e := m.e
	switch o.kind {
	case opMake:
		m.made(o, made)
	case opDelete:
		m.removed(o)
	case opShare:
		e.sh.on[o.slot][o.slot2] = !e.sh.on[o.slot][o.slot2]
	case opRead:
		if refs < 0 {
			break
		}
		if want := m.components(o.h); refs != want && !m.mod.dirty[o.h] {
			e.checks.failf("session %d: read of hierarchy %d returned %d parts, model has %d", m.id, o.h, refs, want)
		}
	case opQuery:
		m.checkQuery(o, refs, yes)
	}
}

// checkQuery checks the composite-read answers that concurrency cannot
// change: a tree leaf's ancestors and roots, and component-of between a
// leaf and a root. Session 0, the only one that moves shared parts, also
// checks the answers that depend on them.
func (m model) checkQuery(o op, refs int, yes bool) {
	e := m.e
	bad := ""
	switch o.q {
	case qAncestors:
		if refs != treeDepth {
			bad = fmt.Sprintf("%d ancestors, want %d", refs, treeDepth)
		}
	case qRoots:
		if refs != 1 {
			bad = fmt.Sprintf("%d roots, want 1", refs)
		}
	case qComponentOf:
		if yes != (o.h == o.h2) {
			bad = fmt.Sprintf("component-of = %v across hierarchies %d, %d", yes, o.h, o.h2)
		}
	}
	if m.id == 0 && len(m.mod.dirty) == 0 {
		switch o.q {
		case qComponents:
			if want := m.components(o.h); refs != want {
				bad = fmt.Sprintf("components-of hierarchy %d: %d parts, model has %d", o.h, refs, want)
			}
		case qSharedComponentOf:
			if want := e.sh.on[o.slot][o.slot2]; yes != want {
				bad = fmt.Sprintf("shared-component-of = %v, model has %v", yes, want)
			}
		case qParents:
			want := 0
			for _, on := range e.sh.on[o.slot] {
				if on {
					want++
				}
			}
			if refs != want {
				bad = fmt.Sprintf("%d parents, model has %d", refs, want)
			}
		}
	}
	if bad != "" {
		e.checks.failf("session %d: %s", m.id, bad)
	}
}

// wireSession is a TCP client of internal/server.
type wireSession struct {
	model
	c *client.Client
}

func openWire(m model) (session, error) {
	c, err := client.Dial(m.e.srv.Addr())
	if err != nil {
		return nil, err
	}
	return &wireSession{model: m, c: c}, nil
}

func (w *wireSession) do(o op, st *sessionTrace, root int32, req uint64) error {
	prog := w.program(o)
	sp := st.open("client.Do", "server", root, req)
	reply, err := w.c.Do(prog)
	st.close(sp)
	if err != nil {
		// A failed statement leaves the session's transaction open; the
		// abort is best-effort and the op's own error is the one counted.
		_, _ = w.c.Do("(abort)")
		w.unsure(o)
		return err
	}
	var made uid.UID
	if o.kind == opMake {
		if made, err = parseRef(reply); err != nil {
			w.e.checks.failf("session %d: make replied %v", w.id, err)
			w.unsure(o)
			return nil
		}
	}
	w.settle(o, strings.Count(reply, "#"), made, reply == "true")
	return nil
}

func (w *wireSession) close() { w.c.Close() }

// embedSession is an in-process sexpr.Interp: parse and eval with no
// TCP in between.
type embedSession struct {
	model
	in *sexpr.Interp
}

func openEmbed(m model) (session, error) {
	return &embedSession{model: m, in: sexpr.NewInterp(m.e.d)}, nil
}

func (s *embedSession) do(o op, st *sessionTrace, root int32, req uint64) error {
	prog := s.program(o)
	sp := st.open("sexpr.ParseAll", "sexpr", root, req)
	nodes, err := sexpr.ParseAll(prog)
	st.close(sp)
	if err != nil {
		s.e.checks.failf("session %d: generated program does not parse: %v", s.id, err)
		return err
	}
	var v value.Value
	for i, n := range nodes {
		name := "Interp.Eval"
		if o.snap && i == 1 {
			name = "Interp.Eval snapshot-query"
		}
		sp := st.open(name, "sexpr", root, req)
		r, err := s.in.Eval(n)
		st.close(sp)
		if err != nil {
			// Best-effort cleanup so the session's next program starts
			// clean; the op's own error is the one counted.
			if s.in.InTxn() {
				_, _ = s.in.EvalString("(abort)")
			}
			_, _ = s.in.EvalString("(snapshot release)")
			s.unsure(o)
			return err
		}
		if !o.snap || i == 1 {
			v = r
		}
	}
	yes, _ := v.AsBool()
	s.settle(o, len(v.Refs(nil)), uid.Nil, yes)
	return nil
}

func (s *embedSession) close() { s.in.Close() }

// typedSession drives the typed transaction API directly.
type typedSession struct {
	model
}

func openTyped(m model) (session, error) {
	return &typedSession{model: m}, nil
}

func (t *typedSession) do(o op, st *sessionTrace, root int32, req uint64) error {
	hs := t.e.hs
	sp := st.open("DB.Begin", "txn", root, req)
	tx := t.e.d.Begin()
	st.close(sp)
	call := func(name string, fn func() error) error {
		sp := st.open(name, "txn", root, req)
		err := fn()
		st.close(sp)
		return err
	}
	var made uid.UID
	refs := -1 // no reference count to check
	var err error
	switch o.kind {
	case opSet:
		err = call("Txn.WriteAttr", func() error { return tx.WriteAttr(hs[o.h].inner[o.slot], "Weight", value.Int(o.val)) })
	case opCross:
		// Two hierarchies in a fixed order, so concurrent cross
		// transactions cannot deadlock each other.
		a, b := hs[o.h].inner[o.slot], hs[o.h2].inner[o.slot2]
		if o.h2 < o.h {
			a, b = b, a
		}
		err = call("Txn.WriteAttr", func() error { return tx.WriteAttr(a, "Weight", value.Int(o.val)) })
		if err == nil {
			err = call("Txn.WriteAttr", func() error { return tx.WriteAttr(b, "Weight", value.Int(o.val)) })
		}
	case opMake:
		err = call("Txn.New", func() error {
			n, err := tx.New("Part", map[string]value.Value{"Name": value.Str("leaf"), "Weight": value.Int(o.val)},
				core.ParentSpec{Parent: hs[o.h].attach[o.slot], Attr: "Subparts"})
			if err == nil {
				made = n.UID()
			}
			return err
		})
	case opDelete:
		err = call("Txn.Delete", func() error { _, err := tx.Delete(hs[o.h].leaves[o.slot]); return err })
	case opRead:
		// Unit read locks (IS class, S root), not ReadComposite: its ISO
		// on the component class conflicts with every writer's IX on the
		// class and turns concurrent cross-hierarchy writers into
		// deadlock victims.
		err = call("Txn.ReadObject", func() error {
			ids := []uid.UID{hs[o.h].root}
			if o.slot >= 0 {
				ids = append(ids, hs[o.h].leaves[o.slot])
			}
			for _, id := range ids {
				if _, err := tx.ReadObject(id); err != nil {
					return err
				}
			}
			return nil
		})
	default:
		err = fmt.Errorf("op kind %d has no typed form", o.kind)
	}
	if err == nil {
		err = call("Txn.Commit", tx.Commit)
	} else {
		// A deadlock victim may already be rolled back; Abort then
		// reports ErrDone, which changes nothing here.
		_ = tx.Abort()
	}
	if err != nil {
		t.unsure(o)
		return err
	}
	t.settle(o, refs, made, false)
	return nil
}

func (t *typedSession) close() {}
