package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/encoding"
	"repro/internal/schema"
	"repro/internal/server"
	"repro/internal/uid"
	"repro/internal/value"
)

// Every Part tree has treeDepth levels below its root and treeFanout
// children per interior part: 85 parts.
const treeDepth, treeFanout = 3, 4

// config is one run's parameters. The workload fixes the database
// shape; the sizes here are the dataset and the run length.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	hiers    int // Part hierarchies loaded
	clients  int // closed-loop sessions
	setups   int // timed set-ups; the last one is measured
	reopens  int // timed recoveries of copies of the abandoned directory
	warmOps  int // untimed ops per session before measuring
	work     string
}

// session is one closed-loop client: do sends one request and returns
// after its reply, keeping the session's model of the database exact.
// The returned error is the operation's failure (counted, not fatal).
type session interface {
	do(o op, st *sessionTrace, root int32, req uint64) error
	close()
}

// workload is a database shape plus the client type that drives it.
type workload struct {
	name   string
	shards int
	pool   int // buffer-pool pages
	shared int // shared parts with several parents (composite-read)
	cands  int // candidate parents per shared part
	serve  bool
	m      mix
	open   func(m model) (session, error)
}

// sessModel is a session's record of what it changed: the database
// must show every acknowledged create and none of the acknowledged
// deletes. An op whose outcome is unknown (it failed after possibly
// taking effect) marks its hierarchy dirty, and dirty hierarchies are
// skipped by the exact checks.
type sessModel struct {
	created int
	deleted []uid.UID
	dirty   map[int]bool
}

// env is one database instance with its model and sessions.
type env struct {
	cfg      config
	w        *workload
	dir      string
	d        *db.DB
	srv      *server.Server
	hs       []*hier
	sh       *sharedModel
	loaded   int // objects created by the bulk load
	loadDur  time.Duration
	tr       *tracer
	sessions []session
	mods     []*sessModel
	checks   *checker
}

// checker collects failed correctness checks from any goroutine.
type checker struct {
	mu    sync.Mutex
	fails []string
}

func (c *checker) failf(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.fails) < 20 {
		c.fails = append(c.fails, fmt.Sprintf(format, args...))
	}
}

func (c *checker) ok() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.fails) == 0
}

func (e *env) opts(dir string) db.Options {
	return db.Options{Dir: dir, SyncWAL: true, PoolPages: e.w.pool, Shards: e.w.shards}
}

// partClass is the schema: an exclusive dependent Subparts tree, plus —
// when the workload has shared parts — a shared, independent Shared
// attribute. A shared composite reference from Part to Part makes every
// writer take IXOS on class Part (§7), which serializes writers, so only
// composite-read declares it.
func partClass(shared bool) schema.ClassDef {
	def := schema.ClassDef{Name: "Part", Attributes: []schema.AttrSpec{
		schema.NewAttr("Name", schema.StringDomain),
		schema.NewAttr("Weight", schema.IntDomain),
		schema.NewCompositeSetAttr("Subparts", "Part"),
	}}
	if shared {
		def.Attributes = append(def.Attributes,
			schema.NewCompositeSetAttr("Shared", "Part").WithExclusive(false).WithDependent(false))
	}
	return def
}

// setup opens a fresh database, loads it and connects the sessions:
// everything setup_s times.
func (e *env) setup() error {
	if _, err := e.tr.lifecycle("db.Open", "db", func() (err error) {
		e.d, err = db.Open(e.opts(e.dir))
		return err
	}); err != nil {
		return fmt.Errorf("open: %w", err)
	}
	if _, err := e.d.DefineClass(partClass(e.w.shared > 0)); err != nil {
		return fmt.Errorf("define Part: %w", err)
	}
	var err error
	e.loadDur, err = e.tr.lifecycle("db.load", "db", e.load)
	if err != nil {
		return fmt.Errorf("load: %w", err)
	}
	if e.w.serve {
		e.srv = server.New(e.d, server.Config{Addr: "127.0.0.1:0", MaxConns: e.cfg.clients + 1})
		if _, err := e.tr.lifecycle("server.Start", "server", e.srv.Start); err != nil {
			return fmt.Errorf("server: %w", err)
		}
	}
	for s := 0; s < e.cfg.clients; s++ {
		mod := &sessModel{dirty: map[int]bool{}}
		sess, err := e.w.open(model{e: e, id: s, mod: mod})
		if err != nil {
			return fmt.Errorf("session %d: %w", s, err)
		}
		e.sessions = append(e.sessions, sess)
		e.mods = append(e.mods, mod)
	}
	return nil
}

// load builds cfg.hiers Part trees, one transaction each, then the
// shared parts. It is deterministic in the seed.
func (e *env) load() error {
	e.hs = make([]*hier, e.cfg.hiers)
	for h := range e.hs {
		m := &hier{}
		tx := e.d.Begin()
		root, err := tx.New("Part", map[string]value.Value{"Name": value.Str(fmt.Sprintf("h%d", h)), "Weight": value.Int(0)})
		if err != nil {
			tx.Abort()
			return err
		}
		m.root = root.UID()
		level := []uid.UID{m.root}
		for depth := 1; depth <= treeDepth; depth++ {
			var next []uid.UID
			for _, p := range level {
				for f := 0; f < treeFanout; f++ {
					o, err := tx.New("Part", map[string]value.Value{
						"Name": value.Str(fmt.Sprintf("h%d-%d-%d", h, depth, len(next))), "Weight": value.Int(int64(f)),
					}, core.ParentSpec{Parent: p, Attr: "Subparts"})
					if err != nil {
						tx.Abort()
						return err
					}
					next = append(next, o.UID())
				}
			}
			m.inner = append(m.inner, level...)
			if depth == treeDepth {
				m.attach = level
				m.leaves = next
			}
			level = next
		}
		if err := tx.Commit(); err != nil {
			return err
		}
		e.loaded += len(m.inner) + len(m.leaves)
		e.hs[h] = m
	}
	if e.w.shared == 0 {
		return nil
	}
	return e.loadShared()
}

// loadShared creates the shared parts and attaches each to the first
// two of its candidate parents, interior parts of distinct hierarchies.
func (e *env) loadShared() error {
	r := rand.New(rand.NewSource(e.cfg.seed ^ 0x5ea2ed))
	sh := &sharedModel{}
	tx := e.d.Begin()
	for i := 0; i < e.w.shared; i++ {
		o, err := tx.New("Part", map[string]value.Value{"Name": value.Str(fmt.Sprintf("shared-%d", i)), "Weight": value.Int(0)})
		if err != nil {
			tx.Abort()
			return err
		}
		sh.parts = append(sh.parts, o.UID())
		hs := r.Perm(len(e.hs))[:e.w.cands]
		var cands []uid.UID
		on := make([]bool, len(hs))
		for j, h := range hs {
			inner := e.hs[h].inner
			c := inner[1+r.Intn(len(inner)-1)]
			cands = append(cands, c)
			if j < 2 {
				if err := tx.Attach(c, "Shared", o.UID()); err != nil {
					tx.Abort()
					return err
				}
				on[j] = true
			}
		}
		sh.cands = append(sh.cands, cands)
		sh.candH = append(sh.candH, hs)
		sh.on = append(sh.on, on)
	}
	if err := tx.Commit(); err != nil {
		return err
	}
	e.loaded += e.w.shared
	e.sh = sh
	return nil
}

// teardown drops an instance without checkpointing it.
func (e *env) teardown() {
	for _, s := range e.sessions {
		s.close()
	}
	e.sessions = nil
	if e.srv != nil {
		e.srv.Close()
		e.srv = nil
	}
	if e.d != nil {
		e.d.Abandon()
		e.d = nil
	}
	os.RemoveAll(e.dir)
}

// segment is one stretch of the measured phase, traced or not.
type segment struct {
	traced bool
	dur    time.Duration
}

// phase is what one run of the sessions produced. Latencies are kept
// per segment, for untraced segments only.
type phase struct {
	reads, commits [][]int64 // per segment
	attempted      int
	failed         int
	completed      int
	segOps         []int           // completed ops per segment
	segWall        []time.Duration // controller-measured segment lengths
	traced         regDelta        // registry delta over the traced segments
	whole          regDelta        // registry delta over the whole phase
	errs           map[string]int  // failure messages, for the report
}

// runCount drives n ops per session, untimed (the warm-up), and returns
// how many failed.
func (e *env) runCount(gens []*gen, n int) int {
	var failed atomic.Int64
	var wg sync.WaitGroup
	for s := range e.sessions {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if err := e.sessions[s].do(gens[s].next(e.hs), nil, -1, 0); err != nil {
					failed.Add(1)
				}
			}
		}(s)
	}
	wg.Wait()
	return int(failed.Load())
}

// runTimed drives every session in a closed loop through the segments.
// Per-op latencies are kept only for untraced segments.
func (e *env) runTimed(gens []*gen, segs []segment) phase {
	p := phase{segOps: make([]int, len(segs)), segWall: make([]time.Duration, len(segs)), errs: map[string]int{},
		reads: make([][]int64, len(segs)), commits: make([][]int64, len(segs))}
	e.tr.segStart = make([]int64, len(segs))
	var cur atomic.Int32
	var stop atomic.Bool
	var mu sync.Mutex
	var wg sync.WaitGroup
	reg := e.d.Observability()
	e.tr.segStart[0] = e.tr.now()
	e.tr.on.Store(segs[0].traced)
	start := time.Now()
	first := reg.Snapshot()
	for s := range e.sessions {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			reads, commits := make([][]int64, len(segs)), make([][]int64, len(segs))
			segOps := make([]int, len(segs))
			var att, failed int
			errs := map[string]int{}
			sess, g := e.sessions[s], gens[s]
			for n := uint64(1); !stop.Load(); n++ {
				seg := int(cur.Load())
				st := e.tr.session(s)
				req := uint64(s)<<40 | n
				o := g.next(e.hs)
				kind := "write"
				if o.kind.isRead() {
					kind = "read"
				}
				root := st.openRoot(kind, "bench", req, seg)
				t0 := time.Now()
				err := sess.do(o, st, root, req)
				dt := time.Since(t0)
				st.close(root)
				att++
				if err != nil {
					failed++
					errs[err.Error()]++
					continue
				}
				segOps[seg]++
				if segs[seg].traced {
					continue
				}
				if o.kind.isRead() {
					reads[seg] = append(reads[seg], int64(dt))
				} else {
					commits[seg] = append(commits[seg], int64(dt))
				}
			}
			mu.Lock()
			defer mu.Unlock()
			for i := range segs {
				p.reads[i] = append(p.reads[i], reads[i]...)
				p.commits[i] = append(p.commits[i], commits[i]...)
			}
			p.attempted += att
			p.failed += failed
			for i, v := range segOps {
				p.segOps[i] += v
			}
			for k, v := range errs {
				p.errs[k] += v
			}
		}(s)
	}
	prev := first
	segBegin := start
	for i, sg := range segs {
		if i > 0 {
			e.tr.segStart[i] = e.tr.now()
			cur.Store(int32(i))
			e.tr.on.Store(sg.traced)
		}
		time.Sleep(sg.dur)
		snap := reg.Snapshot()
		now := time.Now()
		p.segWall[i] = now.Sub(segBegin)
		segBegin = now
		if sg.traced {
			p.traced.add(diffSnapshots(prev, snap))
		}
		prev = snap
	}
	stop.Store(true)
	e.tr.on.Store(false)
	wg.Wait()
	p.whole = diffSnapshots(first, reg.Snapshot())
	for _, v := range p.segOps {
		p.completed += v
	}
	return p
}

// verify checks the database against the model: every modelled part
// exists, every acknowledged delete is gone, each clean hierarchy's
// components-of equals the model, the object count adds up, and the
// engine's topology, the store's placement and (sharded) the routing
// invariants hold.
func (e *env) verify(d *db.DB, when string) {
	eng := d.Engine()
	dirty := map[int]bool{}
	want := e.loaded
	exact := true
	for _, m := range e.mods {
		for h := range m.dirty {
			dirty[h] = true
			exact = false
		}
		want += m.created - len(m.deleted)
		for _, id := range m.deleted {
			if _, err := eng.Get(id); err == nil {
				e.checks.failf("%s: acknowledged delete %v is still readable", when, id)
			}
		}
	}
	attached := make(map[int][]uid.UID)
	if e.sh != nil {
		for i, on := range e.sh.on {
			for j, a := range on {
				if a {
					h := e.sh.candH[i][j]
					attached[h] = append(attached[h], e.sh.parts[i])
				}
			}
		}
		for _, id := range e.sh.parts {
			if _, err := eng.Get(id); err != nil {
				e.checks.failf("%s: shared part %v unreadable: %v", when, id, err)
			}
		}
	}
	for h, m := range e.hs {
		expect := map[uid.UID]bool{}
		for _, id := range append(append([]uid.UID(nil), m.inner[1:]...), m.leaves...) {
			expect[id] = true
		}
		for id := range expect {
			if _, err := eng.Get(id); err != nil && !dirty[h] {
				e.checks.failf("%s: acknowledged part %v of hierarchy %d unreadable: %v", when, id, h, err)
			}
		}
		if dirty[h] {
			continue
		}
		for _, id := range attached[h] {
			expect[id] = true
		}
		got, err := d.ComponentsOf(m.root, core.QueryOpts{})
		if err != nil {
			e.checks.failf("%s: components-of hierarchy %d: %v", when, h, err)
			continue
		}
		if !sameSet(got, expect) {
			e.checks.failf("%s: components-of hierarchy %d has %d parts, model has %d", when, h, len(got), len(expect))
		}
	}
	if exact && eng.Len() != want {
		e.checks.failf("%s: %d objects, model has %d", when, eng.Len(), want)
	}
	if v := eng.Integrity(); len(v) > 0 {
		e.checks.failf("%s: %d topology violations, first: %v", when, len(v), v[0])
	}
	if err := d.CheckPlacement(); err != nil {
		e.checks.failf("%s: placement: %v", when, err)
	}
	if d.Shards() > 1 {
		if err := d.CheckShards(); err != nil {
			e.checks.failf("%s: shards: %v", when, err)
		}
	}
}

func sameSet(got []uid.UID, want map[uid.UID]bool) bool {
	if len(got) != len(want) {
		return false
	}
	for _, id := range got {
		if !want[id] {
			return false
		}
	}
	return true
}

// crashAndRecover stops the sessions, abandons the database (no
// checkpoint, no flush) and reopens copies of the abandoned directory,
// timing each db.Open. The last reopen becomes e.d; the registry it
// returns is the recovering instance's.
func (e *env) crashAndRecover() ([]float64, error) {
	for _, s := range e.sessions {
		s.close()
	}
	e.sessions = nil
	if e.srv != nil {
		if err := e.srv.Close(); err != nil {
			return nil, fmt.Errorf("server close: %w", err)
		}
		e.srv = nil
	}
	if err := e.d.Abandon(); err != nil {
		return nil, fmt.Errorf("abandon: %w", err)
	}
	e.d = nil
	dirs := make([]string, e.cfg.reopens)
	for i := range dirs {
		if i == len(dirs)-1 {
			dirs[i] = e.dir
			continue
		}
		dirs[i] = fmt.Sprintf("%s-copy%d", e.dir, i)
		if err := copyDir(e.dir, dirs[i]); err != nil {
			return nil, err
		}
	}
	var secs []float64
	for i, dir := range dirs {
		var d *db.DB
		dur, err := e.tr.lifecycle("db.Open", "db", func() (err error) {
			d, err = db.Open(e.opts(dir))
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("recover: %w", err)
		}
		secs = append(secs, dur.Seconds())
		if i < len(dirs)-1 {
			d.Abandon()
			os.RemoveAll(dir)
			continue
		}
		e.d = d
	}
	return secs, nil
}

// liveBytes is the encoded size of every live object.
func liveBytes(d *db.DB) (int64, error) {
	ids, err := d.Engine().Extent("Part", true)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, id := range ids {
		o, err := d.Engine().Get(id)
		if err != nil {
			return 0, err
		}
		n += int64(len(encoding.EncodeObject(o)))
	}
	return n, nil
}

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return n, err
}

// syncDir fsyncs every regular file in dir and dir itself, so dirty
// page-cache data left by set-up is on disk before the measured phase
// starts: on ext4 a WAL fsync otherwise also waits for it.
func syncDir(dir string) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, ent := range ents {
		if ent.Type().IsRegular() {
			if err := syncPath(filepath.Join(dir, ent.Name())); err != nil {
				return err
			}
		}
	}
	return syncPath(dir)
}

func syncPath(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range ents {
		if !ent.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, ent.Name()), filepath.Join(dst, ent.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
