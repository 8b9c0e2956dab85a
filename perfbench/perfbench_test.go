package main

import (
	"bytes"
	"context"
	"strings"
	"syscall"
	"testing"
	"time"

	starburst "repro"
	"repro/internal/datum"
)

// smokeSpecs are the three workloads at sizes small enough for a unit
// test; every answer check still runs.
var smokeSpecs = []spec{
	{name: "fig1", make: func(seed int64) workload {
		return newFig1(seed, fig1Size{quotations: 120, inventory: 12, readsPerWrite: 4})
	}},
	{name: "oltp", make: func(seed int64) workload {
		return newOLTP(seed, oltpSize{rows: 600, readsPerWrite: 4})
	}},
	{name: "htap", make: func(seed int64) workload {
		return newHTAP(seed, htapSize{customers: 40, orders: 900, writesPerReport: 5})
	}},
}

func TestSmokeWorkloads(t *testing.T) {
	for _, s := range smokeSpecs {
		for _, traced := range []bool{false, true} {
			s, traced := s, traced
			t.Run(s.name+map[bool]string{false: "/untraced", true: "/traced"}[traced], func(t *testing.T) {
				cfg := config{seed: 7, rounds: 4, trace: traced, workdir: t.TempDir(), setups: 2}
				rep, err := runBenchmark(s, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.correct || rep.failed != 0 || rep.attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d notes=%q", rep.correct, rep.attempted, rep.failed, rep.notes)
				}
				want := 8
				if traced {
					want = 26
				}
				if len(rep.metrics) != want {
					t.Fatalf("%d metrics, want %d", len(rep.metrics), want)
				}
				for _, m := range rep.metrics {
					if m.name == "setup_s" && m.value <= 0 {
						t.Errorf("setup_s = %v", m.value)
					}
				}
			})
		}
	}
}

// TestLayerMetricsPerWorkload checks that the traced run attributes work
// to the layers each workload exercises.
func TestLayerMetricsPerWorkload(t *testing.T) {
	nonzero := map[string][]string{
		"fig1": {"sql.parse_us", "optimizer.optimize_us", "exec.read_run_us", "exec.subq_cache_hit_ratio", "plancache.hit_ratio", "go.alloc_kb_per_stmt"},
		"oltp": {"sql.parse_us", "qgm.translate_us", "verify.graph_us", "plancache.evictions", "storage.index_reads_per_stmt", "core.unattributed_us", "obs.sys_statements_rows"},
		"htap": {"disk.wal_syncs_per_write", "disk.wal_bytes_per_write", "disk.bufpool_hit_ratio", "txn.commit_wait_us", "disk.wal_sync_us", "exec.read_run_us"},
	}
	for _, s := range smokeSpecs {
		cfg := config{seed: 3, rounds: 5, trace: true, workdir: t.TempDir(), setups: 1}
		if s.name == "oltp" {
			// Enough distinct statements to fill the 256-entry plan cache.
			cfg.rounds = 80
		}
		rep, err := runBenchmark(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]float64{}
		for _, m := range rep.metrics {
			got[m.name] = m.value
		}
		for _, name := range nonzero[s.name] {
			if got[name] <= 0 {
				t.Errorf("%s: %s = %v, want > 0", s.name, name, got[name])
			}
		}
		if s.name != "htap" && got["disk.wal_syncs_per_write"] != 0 {
			t.Errorf("%s: HEAP workload reports WAL syncs", s.name)
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "fig1", "--trace", "2"},
		{"--workload", "oltp", "--seconds", "0"},
		{"--bogus"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 || out.Len() != 0 {
			t.Errorf("run(%q) = %d, stdout %q", args, code, out.String())
		}
	}
}

// fig1Fixture sets a small fig1 workload up and returns it with the
// engine's answer for one type.
func fig1Fixture(t *testing.T) (*fig1, *starburst.Result) {
	t.Helper()
	w := newFig1(5, fig1Size{quotations: 200, inventory: 16, readsPerWrite: 4})
	db, err := w.setup("")
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec(fig1Query("CPU"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) < 3 {
		t.Fatalf("fixture answer has %d rows; too few to perturb", len(res.Rows))
	}
	if err := checkFig1(res, w.answers["CPU"], "CPU"); err != nil {
		t.Fatalf("unperturbed answer rejected: %v", err)
	}
	return w, res
}

func perturbed(res *starburst.Result, f func(rows []datum.Row) []datum.Row) *starburst.Result {
	rows := make([]datum.Row, len(res.Rows))
	for i, r := range res.Rows {
		rows[i] = append(datum.Row(nil), r...)
	}
	return &starburst.Result{Columns: res.Columns, Rows: f(rows)}
}

func wantMismatch(t *testing.T, what string, err error) {
	t.Helper()
	if !isMismatch(err) {
		t.Errorf("%s: got %v, want an answer mismatch", what, err)
	}
}

func TestFig1OracleRejectsPerturbedAnswers(t *testing.T) {
	w, res := fig1Fixture(t)
	want := w.answers["CPU"]
	wantMismatch(t, "dropped row", checkFig1(perturbed(res, func(r []datum.Row) []datum.Row { return r[1:] }), want, "CPU"))
	wantMismatch(t, "duplicated row", checkFig1(perturbed(res, func(r []datum.Row) []datum.Row { return append(r, r[0]) }), want, "CPU"))
	wantMismatch(t, "changed price", checkFig1(perturbed(res, func(r []datum.Row) []datum.Row {
		r[0][1] = datum.NewFloat(r[0][1].Float() + 1)
		return r
	}), want, "CPU"))
	wantMismatch(t, "wrong type", checkFig1(perturbed(res, func(r []datum.Row) []datum.Row {
		r[0][0] = datum.NewString("x")
		return r
	}), want, "CPU"))
	// Another type constant's answer is not this one's.
	other, err := w.db.Exec(fig1Query("DISK"), nil)
	if err != nil {
		t.Fatal(err)
	}
	wantMismatch(t, "other type's answer", checkFig1(other, want, "CPU"))

	if err := w.check(); err != nil {
		t.Fatalf("unperturbed row count rejected: %v", err)
	}
	w.quots = append(w.quots, w.newQuotation()) // an insert the table never saw
	wantMismatch(t, "row count", w.check())
}

func TestFig1ModelIsNestedLoop(t *testing.T) {
	inv := []invRow{{1, 5, "CPU"}, {2, 50, "CPU"}, {3, 0, "RAM"}}
	quots := []quotation{
		{partno: 1, price: 1.5, orderQty: 6},  // 5 < 6: qualifies for CPU
		{partno: 1, price: 1.5, orderQty: 5},  // 5 < 5 fails
		{partno: 2, price: 2.5, orderQty: 10}, // 50 < 10 fails
		{partno: 3, price: 3.5, orderQty: 1},  // RAM, 0 < 1
		{partno: 9, price: 9.5, orderQty: 99}, // no inventory row
		{partno: 1, price: 1.5, orderQty: 6},  // duplicate of the first
	}
	cpu := fig1Answer(quots, inv, "CPU")
	if len(cpu) != 1 || cpu[fig1Key{1, 1.5, 6}] != 2 {
		t.Errorf("CPU answer = %v", cpu)
	}
	if ram := fig1Answer(quots, inv, "RAM"); len(ram) != 1 || ram[fig1Key{3, 3.5, 1}] != 1 {
		t.Errorf("RAM answer = %v", ram)
	}
}

func TestOLTPOracleRejectsPerturbedAnswers(t *testing.T) {
	w := newOLTP(5, oltpSize{rows: 50, readsPerWrite: 2})
	db, err := w.setup("")
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec("SELECT bal FROM acct WHERE id = 7", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkBalance(res, 7, w.bal[6]); err != nil {
		t.Fatalf("unperturbed read rejected: %v", err)
	}
	wantMismatch(t, "wrong balance", checkBalance(res, 7, w.bal[6]+1))
	wantMismatch(t, "no row", checkBalance(perturbed(res, func([]datum.Row) []datum.Row { return nil }), 7, w.bal[6]))
	wantMismatch(t, "two rows", checkBalance(perturbed(res, func(r []datum.Row) []datum.Row { return append(r, r[0]) }), 7, w.bal[6]))
	if err := w.check(); err != nil {
		t.Fatalf("unperturbed totals rejected: %v", err)
	}
	w.bal[0]++ // a write the table never saw
	wantMismatch(t, "totals", w.check())
}

func TestHTAPOraclesRejectPerturbedAnswers(t *testing.T) {
	w := newHTAP(5, htapSize{customers: 20, orders: 300, writesPerReport: 2})
	if _, err := w.setup(t.TempDir() + "/data"); err != nil {
		t.Fatal(err)
	}
	defer w.close()
	if err := w.begin(); err != nil {
		t.Fatal(err)
	}
	scan, err := w.tx.Query(context.Background(), htapScanReport, nil)
	if err != nil {
		t.Fatal(err)
	}
	join, err := w.tx.Query(context.Background(), htapJoinReport, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkScanReport(scan, w.snap.scan); err != nil {
		t.Fatalf("unperturbed scan report rejected: %v", err)
	}
	if err := checkJoinReport(join, w.snap.join); err != nil {
		t.Fatalf("unperturbed join report rejected: %v", err)
	}
	wantMismatch(t, "scan count", checkScanReport(perturbed(scan, func(r []datum.Row) []datum.Row {
		r[0][0] = datum.NewInt(r[0][0].Int() + 1)
		return r
	}), w.snap.scan))
	wantMismatch(t, "join sum", checkJoinReport(perturbed(join, func(r []datum.Row) []datum.Row {
		r[0][2] = datum.NewInt(r[0][2].Int() - 1)
		return r
	}), w.snap.join))
	wantMismatch(t, "join region missing", checkJoinReport(perturbed(join, func(r []datum.Row) []datum.Row { return r[1:] }), w.snap.join))
	wantMismatch(t, "join region twice", checkJoinReport(perturbed(join, func(r []datum.Row) []datum.Row { return append(r, r[0]) }), w.snap.join))

	// An insert acknowledged after the snapshot must not show in it.
	if _, err := w.db.Exec("INSERT INTO orders VALUES (100000, 1, 999, 'x')", nil); err != nil {
		t.Fatal(err)
	}
	w.orders = append(w.orders, order{id: 100000, cust: 1, amount: 999})
	scan2, err := w.tx.Query(context.Background(), htapScanReport, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkScanReport(scan2, w.snap.scan); err != nil {
		t.Fatalf("repeat inside the snapshot differs: %v", err)
	}
	wantMismatch(t, "report against the current model", checkScanReport(scan2, htapModel(w.orders, w.region).scan))

	// Durability: the reopened table must hold every acknowledged row,
	// and no more.
	if err := w.check(); err != nil {
		t.Fatalf("durability check on the unperturbed model: %v", err)
	}
	lost := append(append([]order(nil), w.orders...), order{id: 100001, cust: 1, amount: 1})
	wantMismatch(t, "lost insert", checkDurable(w.db, lost, len(w.region)))
	wantMismatch(t, "row never acknowledged", checkDurable(w.db, w.orders[:len(w.orders)-1], len(w.region)))
}

func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {1_000_000, 90},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		if p := tailPercentile(c.n); p > 50 && beyond(c.n, p) < minBeyond {
			t.Errorf("n=%d: p%v leaves %d beyond", c.n, p, beyond(c.n, p))
		}
	}
	sorted := make([]int64, 1000)
	for i := range sorted {
		sorted[i] = int64(i + 1)
	}
	if p := percentile(sorted, 99); p != 990 {
		t.Errorf("p99 of 1..1000 = %d, want 990", p)
	}
	if p := percentile(sorted, 50); p != 500 {
		t.Errorf("p50 of 1..1000 = %d, want 500", p)
	}
	if beyond(1000, 99) != 10 {
		t.Errorf("beyond(1000, 99) = %d", beyond(1000, 99))
	}
}

func TestSummaryBookkeeping(t *testing.T) {
	var s samples
	for i := 1; i <= 200; i++ {
		s.add(time.Duration(i)*time.Microsecond, int64(2*i)*1000)
	}
	sum := summarize(&s)
	if sum.n != 200 || sum.p50 != 100_000 || sum.tailPct != 90 || sum.tail != 180_000 || sum.p99 != 198_000 {
		t.Errorf("summary = %+v", sum)
	}
	if sum.cpuMean != 201_000 { // mean of 2µs..400µs
		t.Errorf("cpu mean = %v ns, want 201000", sum.cpuMean)
	}
	ru := syscall.Rusage{Utime: syscall.Timeval{Sec: 2, Usec: 500}, Stime: syscall.Timeval{Sec: 1, Usec: 250}}
	if got := cpuNanos(&ru); got != 3_000_750_000 {
		t.Errorf("cpuNanos = %d", got)
	}
	if c0 := processCPU(); c0 <= 0 {
		t.Errorf("processCPU = %d", c0)
	}
}

func TestLayerMetricsFromSyntheticSpans(t *testing.T) {
	var c1, c2 counters
	c1[cAllocBytes], c1[cCacheHits], c1[cPageReads] = 4096, 1, 3
	c2[cAllocBytes], c2[cCacheMisses], c2[cPageReads], c2[cWALSyncs], c2[cWALBytes] = 2048, 1, 1, 1, 100
	c2[cCommitWaits], c2[cCommitWaitNs] = 1, 5000
	spans := []span{
		// A read of 100µs: 60µs execute, 10µs build; 30µs unattributed.
		{Stmt: 0, ID: 0, Parent: -1, Name: "stmt", Class: "read", Start: 0, End: 100_000, Counters: &c1},
		{Stmt: 0, ID: 1, Parent: 0, Name: "exec.build", Class: "read", Start: 0, End: 10_000},
		{Stmt: 0, ID: 2, Parent: 0, Name: "exec.execute", Class: "read", Start: 10_000, End: 70_000},
		// A write of 50µs whose phases claim more than its span: self
		// time clips at zero.
		{Stmt: 1, ID: 3, Parent: -1, Name: "stmt", Class: "write", Start: 200_000, End: 250_000, Counters: &c2},
		{Stmt: 1, ID: 4, Parent: 3, Name: "exec.execute", Class: "write", Start: 200_000, End: 260_000},
		{Stmt: 1, ID: 5, Parent: -1, Name: "compile", Start: 300_000, End: 320_000},
		{Stmt: 1, ID: 6, Parent: 5, Name: "sql.parse", Start: 300_000, End: 304_000},
		{Stmt: 1, ID: 7, Parent: 5, Name: "rewrite.rewrite", Start: 304_000, End: 306_000, Count: 3},
	}
	self := selfTimes(spans)
	if self[0] != 30_000 || self[3] != 0 || self[5] != 14_000 || self[6] != 4_000 {
		t.Errorf("self times = %v", self)
	}
	ms, notes := layerMetrics(spans, 42)
	got := map[string]float64{}
	for _, m := range ms {
		got[m.name] = m.value
	}
	for name, want := range map[string]float64{
		"core.unattributed_us":        15,  // (30 + 0) / 2
		"exec.build_us":               5,   // 10µs over 2 statements
		"exec.read_run_us":            60,  // one read
		"exec.write_run_us":           60,  // a phase's own duration
		"sql.parse_us":                4,   // one compile
		"rewrite.firings":             3,   // per compile
		"plancache.hit_ratio":         0.5, // 1 hit, 1 miss
		"storage.page_reads_per_stmt": 2,
		"go.alloc_kb_per_stmt":        3, // 6 KiB over 2 statements
		"disk.wal_syncs_per_write":    1,
		"disk.wal_bytes_per_write":    100,
		"txn.commit_wait_us":          5,
		"obs.sys_statements_rows":     42,
		"disk.bufpool_hit_ratio":      0, // no page requests: base 0
	} {
		if got[name] != want {
			t.Errorf("%s = %v, want %v", name, got[name], want)
		}
	}
	if !strings.Contains(strings.Join(notes, "\n"), "plancache.hit_ratio base: 2 lookups") {
		t.Errorf("notes do not state the hit-ratio base: %q", notes)
	}
}
