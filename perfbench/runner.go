package main

import (
	"errors"
	"fmt"
	"time"

	starburst "repro"
	"repro/internal/datum"
)

// execer is the statement surface a workload drives: a Session for
// auto-committed statements, a Tx for htap's reports.
type execer interface {
	Exec(query string, params map[string]starburst.Value) (*starburst.Result, error)
}

// workload is one input set the benchmark runs. The harness calls
// setup (timed as setup_s), then begin, one untimed warm-up round, a
// fixed number of timed rounds, and finally check.
type workload interface {
	// setup opens a fresh DB (under dir, for DISK storage) and creates,
	// loads, indexes and ANALYZEs it.
	setup(dir string) (*starburst.DB, error)
	// begin opens the workload's sessions (and htap's reporting
	// transaction) on the DB setup returned.
	begin() error
	// round runs one round: the same operations every time, with
	// inputs drawn from the workload's seeded generator.
	round(r *runner) error
	// check runs the after-run answer checks; htap's durability check
	// closes and reopens the DB.
	check() error
	// close releases the DB and removes any files setup made.
	close() error
}

// mismatch is an answer the engine returned that disagrees with the
// workload's own model. It makes the run report correct=false.
type mismatch struct{ msg string }

func (m *mismatch) Error() string { return "answer check failed: " + m.msg }

func mismatchf(format string, args ...any) error {
	return &mismatch{msg: fmt.Sprintf(format, args...)}
}

func isMismatch(err error) bool {
	var m *mismatch
	return errors.As(err, &m)
}

// runner executes a workload's statements, timing each one and, in a
// traced run, recording its spans and counters.
type runner struct {
	db *starburst.DB
	// timed is false during the warm-up round: its statements run but
	// leave no sample.
	timed     bool
	samples   [numClasses]samples
	attempted int
	failed    int
	tr        *tracer // nil in an untraced run
}

// exec runs one operation and records it. A failed operation counts as
// attempted and failed and leaves no latency sample; its error is
// returned so the workload leaves its model untouched.
func (r *runner) exec(class opClass, x execer, query string) (*starburst.Result, error) {
	if r.tr != nil {
		return r.tr.exec(r, class, x, query)
	}
	c0 := processCPU()
	t0 := time.Now()
	res, err := x.Exec(query, nil)
	wall := time.Since(t0)
	c1 := processCPU()
	r.note(class, wall, c1-c0, err)
	return res, err
}

func (r *runner) note(class opClass, wall time.Duration, cpu int64, err error) {
	if !r.timed {
		return
	}
	r.attempted++
	if err != nil {
		r.failed++
		return
	}
	r.samples[class].add(wall, cpu)
}

// admin runs an untimed statement the workload needs (setup DDL, bulk
// loads, after-run checks); any error is fatal to the run.
func admin(x execer, query string) (*starburst.Result, error) {
	res, err := x.Exec(query, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", abbrev(query), err)
	}
	return res, nil
}

func abbrev(q string) string {
	if len(q) > 72 {
		return q[:72] + "..."
	}
	return q
}

// bulkInsert loads n rows through multi-row INSERT statements of at
// most 500 rows each; row(i) renders the i-th (1-based) row's VALUES
// tuple.
func bulkInsert(x execer, table string, n int, row func(i int) string) error {
	const perStmt = 500
	buf := make([]byte, 0, 64*perStmt)
	for i := 1; i <= n; i++ {
		if len(buf) == 0 {
			buf = append(buf, "INSERT INTO "+table+" VALUES "...)
		} else {
			buf = append(buf, ", "...)
		}
		buf = append(buf, row(i)...)
		if i%perStmt == 0 || i == n {
			if _, err := admin(x, string(buf)); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	return nil
}

// intCell reads an integer result cell (COUNT and SUM over INT columns).
func intCell(res *starburst.Result, row, col int) (int64, error) {
	if res == nil || row >= len(res.Rows) || col >= len(res.Rows[row]) {
		return 0, mismatchf("missing result cell (%d,%d)", row, col)
	}
	v := res.Rows[row][col]
	switch {
	case v.IsNull():
		return 0, nil
	case v.Type() == datum.TInt:
		return v.Int(), nil
	}
	return 0, mismatchf("result cell (%d,%d) is %v, want an integer", row, col, v)
}
