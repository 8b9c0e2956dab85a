package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"

	starburst "repro"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/qgm"
	"repro/internal/rewrite"
	"repro/internal/sql"
	"repro/internal/verify"
)

// The traced run records, for every timed statement:
//
//   - a root span "stmt" around the engine call, whose children are the
//     five phases the engine reports on Result.Trace (engine.parse, which
//     includes translation, engine.rewrite, engine.optimize, exec.build
//     and exec.execute), laid end to end from the statement's start. The
//     stmt span's self time is the statement core the phases do not
//     cover: transaction begin and commit, version GC, the WAL bracket
//     and bookkeeping.
//   - for a statement the engine compiled (a plan-cache miss), a second
//     root span "compile" in which the benchmark re-runs the compile
//     layers itself, one child span per layer call: sql.parse,
//     qgm.translate, verify.graph, rewrite.rewrite and
//     optimizer.optimize.
//   - counter deltas (IOStats, PlanCacheStats, WaitStats, metrics,
//     disk-store stats, Go runtime allocation and GC) read at the stmt
//     span's two boundaries and attached to it.
//
// All spans of a statement share its statement number. Spans stay in
// memory and are written out as JSON lines when the run ends.

// span is one timed interval of the traced run. Times are nanoseconds
// since the traced run began.
type span struct {
	Stmt   int64  `json:"stmt"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Name   string `json:"name"`
	Class  string `json:"class,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Count is the work the layer call reported: rewrite-rule firings
	// on rewrite.rewrite, STAR expansions on optimizer.optimize.
	Count int64 `json:"count,omitempty"`
	// Counters holds the counter deltas across a stmt span.
	Counters *counters `json:"counters,omitempty"`
}

// The counters read at statement boundaries, as indexes into counters.
const (
	cPageReads = iota
	cIndexReads
	cCacheHits
	cCacheMisses
	cCacheEvictions
	cSubqHits
	cSubqMisses
	cCommitWaits
	cCommitWaitNs
	cWALSyncWaits
	cWALSyncWaitNs
	cPoolLoads
	cPoolLoadNs
	cPoolHits
	cPoolMisses
	cWALBytes
	cWALSyncs
	cCheckpoints
	cAllocBytes
	cGCCycles
	numCounters
)

var counterNames = [numCounters]string{
	"page_reads", "index_reads",
	"plancache_hits", "plancache_misses", "plancache_evictions",
	"subq_cache_hits", "subq_cache_misses",
	"txn_commit_waits", "txn_commit_wait_ns",
	"wal_sync_waits", "wal_sync_wait_ns",
	"bufpool_loads", "bufpool_load_ns",
	"bufpool_hits", "bufpool_misses",
	"wal_bytes", "wal_syncs", "checkpoints",
	"alloc_bytes", "gc_cycles",
}

type counters [numCounters]int64

func (c *counters) MarshalJSON() ([]byte, error) {
	m := make(map[string]int64, numCounters)
	for i, v := range c {
		if v != 0 {
			m[counterNames[i]] = v
		}
	}
	return json.Marshal(m)
}

func (c counters) sub(o counters) counters {
	for i := range c {
		c[i] -= o[i]
	}
	return c
}

// tracer records the spans and counters of a traced run.
type tracer struct {
	db      *starburst.DB
	origin  time.Time
	spans   []span
	stmts   int64
	runtime []metrics.Sample
	// err is the first failure of the tracing itself (a statement
	// without a trace, a compile layer rejecting what the engine
	// compiled); it fails the run.
	err error
}

func newTracer(db *starburst.DB) *tracer {
	return &tracer{
		db:     db,
		origin: time.Now(),
		runtime: []metrics.Sample{
			{Name: "/gc/heap/allocs:bytes"},
			{Name: "/gc/cycles/total:gc-cycles"},
		},
	}
}

// read takes one reading of every counter.
func (t *tracer) read() counters {
	var c counters
	c[cPageReads], _, c[cIndexReads] = t.db.IOStats()
	pc := t.db.PlanCacheStats()
	c[cCacheHits], c[cCacheMisses], c[cCacheEvictions] = pc.Hits, pc.Misses, pc.Evictions
	m := t.db.Metrics()
	c[cSubqHits] = m.CounterValue(starburst.MetricSubqCacheHits, "", "")
	c[cSubqMisses] = m.CounterValue(starburst.MetricSubqCacheMisses, "", "")
	for _, w := range t.db.WaitStats() {
		switch w.Event {
		case obs.WaitTxnCommit:
			c[cCommitWaits], c[cCommitWaitNs] = w.Count, w.Nanos
		case obs.WaitWALSync:
			c[cWALSyncWaits], c[cWALSyncWaitNs] = w.Count, w.Nanos
		case obs.WaitBufPoolLoad:
			c[cPoolLoads], c[cPoolLoadNs] = w.Count, w.Nanos
		}
	}
	if st := t.db.Store(); st != nil {
		s := st.Stats()
		c[cPoolHits], c[cPoolMisses] = s.PoolHits, s.PoolMisses
		c[cWALBytes], c[cWALSyncs], c[cCheckpoints] = s.WALBytes, s.WALSyncs, s.Checkpoints
	}
	metrics.Read(t.runtime)
	c[cAllocBytes] = int64(t.runtime[0].Value.Uint64())
	c[cGCCycles] = int64(t.runtime[1].Value.Uint64())
	return c
}

func (t *tracer) since(tm time.Time) int64 { return int64(tm.Sub(t.origin)) }

func (t *tracer) add(s span) int {
	s.ID = len(t.spans)
	t.spans = append(t.spans, s)
	return s.ID
}

// enginePhases names the Result.Trace phases as child spans.
var enginePhases = [obs.NumPhases]string{
	obs.PhaseParse:    "engine.parse",
	obs.PhaseRewrite:  "engine.rewrite",
	obs.PhaseOptimize: "engine.optimize",
	obs.PhaseBuild:    "exec.build",
	obs.PhaseExec:     "exec.execute",
}

// exec runs one statement of the traced run. Warm-up statements run
// without spans.
func (t *tracer) exec(r *runner, class opClass, x execer, query string) (*starburst.Result, error) {
	if !r.timed {
		return x.Exec(query, nil)
	}
	before := t.read()
	c0 := processCPU()
	start := time.Now()
	res, err := x.Exec(query, nil)
	end := time.Now()
	c1 := processCPU()
	delta := t.read().sub(before)
	r.note(class, end.Sub(start), c1-c0, err)
	if err != nil {
		return res, err
	}
	if res.Trace == nil {
		t.fail(fmt.Errorf("traced statement returned no Result.Trace: %s", abbrev(query)))
		return res, nil
	}
	id := t.stmts
	t.stmts++
	root := t.add(span{Stmt: id, Parent: -1, Name: "stmt", Class: class.String(),
		Start: t.since(start), End: t.since(end), Counters: &delta})
	cursor := t.since(start)
	for p, d := range res.Trace.Phases {
		if d <= 0 {
			continue
		}
		t.add(span{Stmt: id, Parent: root, Name: enginePhases[p], Class: class.String(),
			Start: cursor, End: cursor + int64(d)})
		cursor += int64(d)
	}
	if !res.Trace.PlanCacheHit {
		stars := 0
		for _, n := range res.Trace.StarExpansions {
			stars += n
		}
		if err := t.compile(id, query, int64(stars)); err != nil {
			t.fail(fmt.Errorf("compile layers on %s: %w", abbrev(query), err))
		}
	}
	return res, nil
}

func (t *tracer) fail(err error) {
	if t.err == nil {
		t.err = err
	}
}

// compile re-runs the compile layers on a statement the engine just
// compiled, timing each layer call from outside: parse, translate
// (whose Check hook runs the deep verifier), the verifier on the
// translated graph, rewrite, and plan optimization.
func (t *tracer) compile(id int64, query string, stars int64) error {
	root := t.add(span{Stmt: id, Parent: -1, Name: "compile", Start: t.since(time.Now())})
	// layer times one layer call as a child span of root and returns
	// the span's index, so a layer's work count can be set on it.
	layer := func(name string, f func() error) (int, error) {
		s := t.since(time.Now())
		err := f()
		return t.add(span{Stmt: id, Parent: root, Name: name, Start: s, End: t.since(time.Now())}), err
	}
	var (
		stmt  sql.Statement
		g     *qgm.Graph
		fired []rewrite.Fired
		i     int
	)
	_, err := layer("sql.parse", func() (err error) { stmt, err = sql.Parse(query); return err })
	if err == nil {
		_, err = layer("qgm.translate", func() (err error) {
			g, err = qgm.TranslateStatement(t.db.Catalog().Pin(), stmt)
			return err
		})
	}
	if err == nil {
		_, err = layer("verify.graph", func() error {
			if rep := verify.Graph(g); rep != nil {
				return rep
			}
			return nil
		})
	}
	if err == nil {
		i, err = layer("rewrite.rewrite", func() (err error) { fired, err = t.db.RewriteEngine().Rewrite(g, t.db.Rewrite); return err })
		t.spans[i].Count = int64(len(fired)) // one entry per rule firing
	}
	if err == nil {
		i, err = layer("optimizer.optimize", func() error {
			_, err := t.db.Optimizer().OptimizeConfig(g, nil, optimizer.Config{DOP: 1})
			return err
		})
		t.spans[i].Count = stars
	}
	t.spans[root].End = t.since(time.Now())
	return err
}

// selfTimes returns every span's duration minus the part of it its
// children cover. Children of one parent never overlap: engine phases
// are laid end to end, and compile layers run one after another.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
	}
	for _, s := range spans {
		if s.Parent < 0 {
			continue
		}
		p := spans[s.Parent]
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			self[s.Parent] -= hi - lo
		}
	}
	return self
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			return errors.Join(err, f.Close())
		}
	}
	if err := bw.Flush(); err != nil {
		return errors.Join(err, f.Close())
	}
	return f.Close()
}

// layerMetrics derives the per-layer metrics from the spans; sysRows
// is SYS.STATEMENTS' row count after the run. notes states the base of
// every ratio.
func layerMetrics(spans []span, sysRows int64) (ms []metric, notes []string) {
	self := selfTimes(spans)
	byName := map[string]*acc{}
	var stmts, reads, writes int
	var readRun, writeRun int64
	var sum counters
	for i, s := range spans {
		a := byName[s.Name]
		if a == nil {
			a = &acc{}
			byName[s.Name] = a
		}
		a.n++
		a.self += self[i]
		a.work += s.Count
		switch {
		case s.Name == "stmt":
			stmts++
			if s.Class == classRead.String() {
				reads++
			} else {
				writes++
			}
			for k, v := range s.Counters {
				sum[k] += v
			}
		case s.Name == "exec.execute" && s.Class == classRead.String():
			readRun += self[i]
		case s.Name == "exec.execute":
			writeRun += self[i]
		}
	}
	meanSelf := func(name string) float64 {
		if a := byName[name]; a != nil && a.n > 0 {
			return float64(a.self) / float64(a.n) / 1e3
		}
		return 0
	}
	meanWork := func(name string) float64 {
		if a := byName[name]; a != nil && a.n > 0 {
			return float64(a.work) / float64(a.n)
		}
		return 0
	}
	perStmt := func(name string, base int) float64 {
		if a := byName[name]; a != nil && base > 0 {
			return float64(a.self) / float64(base) / 1e3
		}
		return 0
	}
	notes = []string{
		fmt.Sprintf("statements=%d (reads=%d writes=%d) compiled=%d", stmts, reads, writes, byName["compile"].count()),
		fmt.Sprintf("plancache.hit_ratio base: %d lookups", sum[cCacheHits]+sum[cCacheMisses]),
		fmt.Sprintf("exec.subq_cache_hit_ratio base: %d lookups", sum[cSubqHits]+sum[cSubqMisses]),
		fmt.Sprintf("disk.bufpool_hit_ratio base: %d page requests", sum[cPoolHits]+sum[cPoolMisses]),
		fmt.Sprintf("txn.commit_wait_us base: %d commits; disk.wal_sync_us base: %d syncs; disk.bufpool_load_us base: %d loads",
			sum[cCommitWaits], sum[cWALSyncWaits], sum[cPoolLoads]),
	}
	return []metric{
		{"sql.parse_us", meanSelf("sql.parse"), "us"},
		{"qgm.translate_us", meanSelf("qgm.translate"), "us"},
		{"verify.graph_us", meanSelf("verify.graph"), "us"},
		{"rewrite.rewrite_us", meanSelf("rewrite.rewrite"), "us"},
		{"rewrite.firings", meanWork("rewrite.rewrite"), "count"},
		{"optimizer.optimize_us", meanSelf("optimizer.optimize"), "us"},
		{"optimizer.star_expansions", meanWork("optimizer.optimize"), "count"},
		{"plancache.hit_ratio", ratio(sum[cCacheHits], sum[cCacheHits]+sum[cCacheMisses]), "ratio"},
		{"plancache.evictions", float64(sum[cCacheEvictions]), "count"},
		{"exec.build_us", perStmt("exec.build", stmts), "us"},
		{"exec.read_run_us", ratio(readRun, int64(reads)) / 1e3, "us"},
		{"exec.write_run_us", ratio(writeRun, int64(writes)) / 1e3, "us"},
		{"exec.subq_cache_hit_ratio", ratio(sum[cSubqHits], sum[cSubqHits]+sum[cSubqMisses]), "ratio"},
		{"storage.page_reads_per_stmt", ratio(sum[cPageReads], int64(stmts)), "pages"},
		{"storage.index_reads_per_stmt", ratio(sum[cIndexReads], int64(stmts)), "count"},
		{"core.unattributed_us", meanSelf("stmt"), "us"},
		{"txn.commit_wait_us", ratio(sum[cCommitWaitNs], sum[cCommitWaits]) / 1e3, "us"},
		{"disk.wal_sync_us", ratio(sum[cWALSyncWaitNs], sum[cWALSyncWaits]) / 1e3, "us"},
		{"disk.wal_syncs_per_write", ratio(sum[cWALSyncs], int64(writes)), "count"},
		{"disk.wal_bytes_per_write", ratio(sum[cWALBytes], int64(writes)), "B"},
		{"disk.bufpool_hit_ratio", ratio(sum[cPoolHits], sum[cPoolHits]+sum[cPoolMisses]), "ratio"},
		{"disk.bufpool_load_us", ratio(sum[cPoolLoadNs], sum[cPoolLoads]) / 1e3, "us"},
		{"disk.checkpoints", float64(sum[cCheckpoints]), "count"},
		{"obs.sys_statements_rows", float64(sysRows), "rows"},
		{"go.alloc_kb_per_stmt", ratio(sum[cAllocBytes], int64(stmts)) / 1024, "KiB"},
		{"go.gc_cycles", float64(sum[cGCCycles]), "count"},
	}, notes
}

type acc struct {
	n          int
	self, work int64
}

func (a *acc) count() int {
	if a == nil {
		return 0
	}
	return a.n
}

// ratio is num/den, 0 when den is 0 (a layer the workload never uses).
func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
