package main

import (
	"math/rand"

	"repro/internal/uid"
)

// hier is the generator's model of one Part hierarchy. inner and attach
// are fixed after the bulk load; leaves changes only through the one
// session that owns the hierarchy, so every session's view of the parts
// it may delete or create under is exact.
type hier struct {
	root   uid.UID
	inner  []uid.UID // root and interior parts: never deleted, targets of sets
	attach []uid.UID // parts one level above the leaves: parents of new leaves
	leaves []uid.UID // deletable leaves, original and created
}

func (h *hier) addLeaf(id uid.UID) { h.leaves = append(h.leaves, id) }

// removeLeaf drops leaves[slot] by swapping in the last leaf, so the
// model's layout depends only on the op sequence.
func (h *hier) removeLeaf(slot int) uid.UID {
	id := h.leaves[slot]
	last := len(h.leaves) - 1
	h.leaves[slot] = h.leaves[last]
	h.leaves = h.leaves[:last]
	return id
}

// sharedModel is composite-read's non-exclusive Shared attribute: each
// shared part has a fixed list of candidate parents (interior parts of
// distinct hierarchies) and is attached to some of them. Only session 0
// toggles attachments, so the model stays exact.
type sharedModel struct {
	parts []uid.UID
	cands [][]uid.UID // candidate parents per shared part
	candH [][]int     // hierarchy index of each candidate
	on    [][]bool    // attached now?
}

type opKind uint8

const (
	opSet    opKind = iota // write an attribute of an interior part
	opMake                 // create a leaf in an owned hierarchy
	opDelete               // delete a leaf of an owned hierarchy
	opCross                // write interior parts of two hierarchies in one transaction
	opRead                 // read an owned hierarchy: whole over the wire, root and one leaf typed
	opQuery                // one §3 query (composite-read)
	opShare                // toggle one shared-part attachment (composite-read, session 0)
)

// isRead reports whether the op is timed as a read rather than a commit.
func (k opKind) isRead() bool { return k == opRead || k == opQuery }

type queryKind uint8

const (
	qComponents        queryKind = iota // components-of a root
	qAncestors                          // ancestors-of a leaf
	qRoots                              // roots-of a leaf
	qComponentOf                        // component-of leaf root
	qSharedComponentOf                  // shared-component-of shared-part interior-part
	qParents                            // parents-of a shared part
)

// op is one generated request, in model coordinates (hierarchy index
// and slot), never in UIDs: the same seed yields the same op sequence
// whatever UIDs the database hands out.
type op struct {
	kind        opKind
	h, h2       int
	slot, slot2 int
	val         int64
	q           queryKind
	snap        bool
}

// mix is a workload's request mix. Reads take the read share; the rest
// are writes split into cross-hierarchy, set, make and (the remainder)
// delete. share is the fraction of session 0's writes that toggle a
// shared attachment. With solo, session 0 issues every write (the
// others only read) and the overall read share stays read.
type mix struct {
	read, cross, set, make, share float64
	solo                          bool
}

// gen draws one session's ops. Hierarchies are picked with Zipf skew
// over a popularity order fixed by the workload seed, so every session
// agrees on which hierarchies are hot.
type gen struct {
	r        *rand.Rand
	m        mix
	session  int
	hot      []int // hierarchy index by popularity rank
	own      []int // hierarchies this session owns, most popular first
	zAll     *rand.Zipf
	zOwn     *rand.Zipf
	nShared  int
	maxCands int
}

// zipfS is the Zipf exponent of hierarchy popularity.
const zipfS = 1.2

// popularity is the seed's hierarchy order, shared by all sessions.
func popularity(seed int64, n int) []int {
	return rand.New(rand.NewSource(seed)).Perm(n)
}

// newGen returns session s of n's generator. Session s owns the
// hierarchies whose index is s modulo n.
func newGen(seed int64, s, sessions int, hot []int, m mix, nShared, maxCands int) *gen {
	r := rand.New(rand.NewSource(seed*7919 + int64(s) + 1))
	g := &gen{r: r, m: m, session: s, hot: hot, nShared: nShared, maxCands: maxCands}
	for _, h := range hot {
		if h%sessions == s {
			g.own = append(g.own, h)
		}
	}
	if m.solo {
		g.m.read = 1
		if s == 0 {
			g.m.read = max(0, 1-(1-m.read)*float64(sessions))
		}
	}
	g.zAll = rand.NewZipf(r, zipfS, 1, uint64(len(hot)-1))
	g.zOwn = rand.NewZipf(r, zipfS, 1, uint64(len(g.own)-1))
	return g
}

func (g *gen) anyHier() int { return g.hot[g.zAll.Uint64()] }
func (g *gen) ownHier() int { return g.own[g.zOwn.Uint64()] }

// next draws the session's next op against the model hs.
func (g *gen) next(hs []*hier) op {
	r := g.r
	if r.Float64() < g.m.read {
		if g.nShared > 0 {
			return g.query(hs)
		}
		h := g.ownHier()
		o := op{kind: opRead, h: h, slot: -1}
		if n := len(hs[h].leaves); n > 0 {
			o.slot = r.Intn(n)
		}
		return o
	}
	if g.session == 0 && g.nShared > 0 && r.Float64() < g.m.share {
		return op{kind: opShare, slot: r.Intn(g.nShared), slot2: r.Intn(g.maxCands)}
	}
	p := r.Float64()
	switch {
	case p < g.m.cross:
		a, b := g.anyHier(), g.anyHier()
		for b == a {
			b = g.hot[r.Intn(len(g.hot))]
		}
		return op{kind: opCross, h: a, h2: b, slot: r.Intn(len(hs[a].inner)),
			slot2: r.Intn(len(hs[b].inner)), val: r.Int63n(1_000_000)}
	case p < g.m.cross+g.m.set:
		h := g.anyHier()
		return op{kind: opSet, h: h, slot: r.Intn(len(hs[h].inner)), val: r.Int63n(1_000_000)}
	case p < g.m.cross+g.m.set+g.m.make:
		h := g.ownHier()
		return op{kind: opMake, h: h, slot: r.Intn(len(hs[h].attach)), val: r.Int63n(1_000_000)}
	default:
		h := g.ownHier()
		if len(hs[h].leaves) == 0 {
			return op{kind: opMake, h: h, slot: r.Intn(len(hs[h].attach)), val: r.Int63n(1_000_000)}
		}
		return op{kind: opDelete, h: h, slot: r.Intn(len(hs[h].leaves))}
	}
}

// query draws one composite-read §3 query; half run inside a snapshot.
func (g *gen) query(hs []*hier) op {
	r := g.r
	o := op{kind: opQuery, h: g.anyHier(), snap: r.Intn(2) == 0}
	switch p := r.Float64(); {
	case p < 0.30:
		o.q = qComponents
	case p < 0.45:
		o.q, o.slot = qAncestors, r.Intn(len(hs[o.h].leaves))
	case p < 0.60:
		o.q, o.slot = qRoots, r.Intn(len(hs[o.h].leaves))
	case p < 0.70:
		o.q, o.slot = qComponentOf, r.Intn(len(hs[o.h].leaves))
		if r.Intn(2) == 0 {
			o.h2 = o.h
		} else {
			o.h2 = g.anyHier()
		}
	case p < 0.80:
		o.q, o.slot, o.slot2 = qSharedComponentOf, r.Intn(g.nShared), r.Intn(g.maxCands)
	default:
		o.q, o.slot = qParents, r.Intn(g.nShared)
	}
	return o
}
