package main

import (
	"fmt"
	"math/rand"

	starburst "repro"
)

// oltp runs point statements against one HEAP table with a unique
// index: SELECTs and UPDATEs by key, every literal inline, so the
// distinct statement texts far outnumber the plan cache's entries.
type oltp struct {
	size oltpSize
	rng  *rand.Rand

	db   *starburst.DB
	sess *starburst.Session

	// bal is the model: bal[id-1] is account id's balance.
	bal []int64
}

type oltpSize struct {
	rows int
	// readsPerWrite is the number of point reads in a round; each round
	// ends with one point UPDATE.
	readsPerWrite int
}

func newOLTP(seed int64, size oltpSize) *oltp {
	return &oltp{size: size, rng: rand.New(rand.NewSource(seed))}
}

func (w *oltp) setup(string) (*starburst.DB, error) {
	w.bal = make([]int64, w.size.rows)
	for i := range w.bal {
		w.bal[i] = int64(w.rng.Intn(1_000_000))
	}
	db := starburst.Open(starburst.WithPlanCache(256))
	w.db = db
	if _, err := admin(db, "CREATE TABLE acct (id INT, bal INT)"); err != nil {
		return nil, err
	}
	if err := bulkInsert(db, "acct", len(w.bal), func(i int) string {
		return fmt.Sprintf("(%d, %d)", i, w.bal[i-1])
	}); err != nil {
		return nil, err
	}
	for _, q := range []string{"CREATE UNIQUE INDEX acct_pk ON acct (id)", "ANALYZE acct"} {
		if _, err := admin(db, q); err != nil {
			return nil, err
		}
	}
	return db, nil
}

func (w *oltp) begin() error {
	w.sess = w.db.NewSession()
	return nil
}

func (w *oltp) key() int64 { return int64(w.rng.Intn(len(w.bal)) + 1) }

func (w *oltp) round(r *runner) error {
	for i := 0; i < w.size.readsPerWrite; i++ {
		id := w.key()
		res, err := r.exec(classRead, w.sess, fmt.Sprintf("SELECT bal FROM acct WHERE id = %d", id))
		if err != nil {
			continue
		}
		if err := checkBalance(res, id, w.bal[id-1]); err != nil {
			return err
		}
	}
	id, v := w.key(), int64(w.rng.Intn(1_000_000))
	res, err := r.exec(classWrite, w.sess, fmt.Sprintf("UPDATE acct SET bal = %d WHERE id = %d", v, id))
	if err != nil {
		return nil
	}
	if res.Affected != 1 {
		return mismatchf("UPDATE acct ... WHERE id = %d affected %d rows, want 1", id, res.Affected)
	}
	w.bal[id-1] = v
	return nil
}

// checkBalance checks a point read against the model's balance.
func checkBalance(res *starburst.Result, id, want int64) error {
	if len(res.Rows) != 1 {
		return mismatchf("SELECT bal ... WHERE id = %d returned %d rows, want 1", id, len(res.Rows))
	}
	got, err := intCell(res, 0, 0)
	if err != nil {
		return err
	}
	if got != want {
		return mismatchf("account %d has balance %d, model says %d", id, got, want)
	}
	return nil
}

// check compares the table's row count and balance total with the
// model's after the run.
func (w *oltp) check() error {
	res, err := admin(w.db, "SELECT COUNT(*), SUM(bal) FROM acct")
	if err != nil {
		return err
	}
	var sum int64
	for _, b := range w.bal {
		sum += b
	}
	return checkTotals("acct", res, int64(len(w.bal)), sum)
}

// checkTotals checks a one-row (COUNT, SUM) result against the model.
func checkTotals(what string, res *starburst.Result, count, sum int64) error {
	n, err := intCell(res, 0, 0)
	if err != nil {
		return err
	}
	s, err := intCell(res, 0, 1)
	if err != nil {
		return err
	}
	if n != count || s != sum {
		return mismatchf("%s: COUNT=%d SUM=%d, model says COUNT=%d SUM=%d", what, n, s, count, sum)
	}
	return nil
}

func (w *oltp) close() error { return nil }
