package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"

	starburst "repro"
)

// htap mixes reports and inserts on DISK storage: one reporting
// transaction holds a single snapshot for the whole timed phase and
// runs a scan-filter-aggregate and a hash-join report every few
// writes, while auto-committed single-row INSERTs (WAL append + fsync)
// arrive between them. The scan report runs twice per round, before and
// after the join, so reads are two thirds scan reports: their median
// then lies inside the scan reports' latencies rather than on the gap
// between the two kinds.
type htap struct {
	size htapSize
	rng  *rand.Rand
	dir  string

	db   *starburst.DB
	sess *starburst.Session
	tx   *starburst.Tx

	region []int64 // region[c-1] is customer c's region
	orders []order
	// snap holds the reports' answers over the rows committed when the
	// reporting transaction began: what its snapshot must show.
	snap htapAnswer
}

type htapSize struct {
	customers, orders int
	// writesPerReport is the number of INSERTs in a round; each round
	// ends with the reports.
	writesPerReport int
}

type order struct{ id, cust, amount int64 }

const (
	htapScanReport = "SELECT COUNT(*), SUM(amount) FROM orders WHERE amount >= 250"
	htapJoinReport = "SELECT c.region, COUNT(*), SUM(o.amount) FROM orders o, cust c " +
		"WHERE o.cust = c.cust GROUP BY c.region"
	htapRegions = 8
)

type agg struct{ count, sum int64 }

// htapAnswer is both reports' answers: the filtered aggregate and the
// per-region join aggregate.
type htapAnswer struct {
	scan agg
	join map[int64]agg
}

func newHTAP(seed int64, size htapSize) *htap {
	return &htap{size: size, rng: rand.New(rand.NewSource(seed))}
}

func (w *htap) newOrder(id int64) order {
	return order{id: id, cust: int64(w.rng.Intn(len(w.region)) + 1), amount: int64(w.rng.Intn(1000))}
}

// values renders an order row; the note column pads rows so the table
// spans several times the buffer pool.
func (o order) values() string {
	return fmt.Sprintf("(%d, %d, %d, 'order-%018d')", o.id, o.cust, o.amount, o.id)
}

func openHTAP(dir string) (*starburst.DB, error) {
	db := starburst.Open(starburst.WithPlanCache(256), starburst.WithDataDir(dir))
	if err := db.OpenErr(); err != nil {
		return nil, fmt.Errorf("open %s: %w", dir, err)
	}
	return db, nil
}

func (w *htap) setup(dir string) (*starburst.DB, error) {
	w.region = make([]int64, w.size.customers)
	for i := range w.region {
		w.region[i] = int64(w.rng.Intn(htapRegions))
	}
	w.orders = make([]order, w.size.orders)
	for i := range w.orders {
		w.orders[i] = w.newOrder(int64(i + 1))
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	w.dir = dir
	db, err := openHTAP(dir)
	if err != nil {
		return nil, err
	}
	w.db = db
	for _, q := range []string{
		"CREATE TABLE cust (cust INT, region INT) USING DISK",
		"CREATE TABLE orders (id INT, cust INT, amount INT, note STRING) USING DISK",
	} {
		if _, err := admin(db, q); err != nil {
			return nil, err
		}
	}
	if err := w.load(); err != nil {
		return nil, err
	}
	for _, q := range []string{
		"CREATE UNIQUE INDEX cust_pk ON cust (cust)",
		"CREATE UNIQUE INDEX orders_pk ON orders (id)",
		"ANALYZE cust",
		"ANALYZE orders",
	} {
		if _, err := admin(db, q); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// load inserts the generated rows in one transaction, so the load
// pays one commit fsync rather than one per INSERT statement and
// set-up time follows the engine more than the disk.
func (w *htap) load() error {
	tx, err := w.db.Begin(context.Background())
	if err != nil {
		return fmt.Errorf("begin load: %w", err)
	}
	if err := bulkInsert(tx, "cust", len(w.region), func(i int) string {
		return fmt.Sprintf("(%d, %d)", i, w.region[i-1])
	}); err != nil {
		return errors.Join(err, tx.Rollback())
	}
	if err := bulkInsert(tx, "orders", len(w.orders), func(i int) string { return w.orders[i-1].values() }); err != nil {
		return errors.Join(err, tx.Rollback())
	}
	if err := tx.Commit(); err != nil {
		return fmt.Errorf("commit load: %w", err)
	}
	return nil
}

// begin opens the writer session and the reporting transaction, whose
// snapshot is held until check.
func (w *htap) begin() error {
	w.sess = w.db.NewSession()
	tx, err := w.db.Begin(context.Background())
	if err != nil {
		return fmt.Errorf("begin reporting transaction: %w", err)
	}
	w.tx = tx
	w.snap = htapModel(w.orders, w.region)
	return nil
}

func (w *htap) round(r *runner) error {
	for i := 0; i < w.size.writesPerReport; i++ {
		o := w.newOrder(int64(len(w.orders) + 1))
		res, err := r.exec(classWrite, w.sess, "INSERT INTO orders VALUES "+o.values())
		if err != nil {
			continue
		}
		if res.Affected != 1 {
			return mismatchf("INSERT INTO orders affected %d rows, want 1", res.Affected)
		}
		w.orders = append(w.orders, o)
	}
	for _, q := range []string{htapScanReport, htapJoinReport, htapScanReport} {
		res, err := r.exec(classRead, w.tx, q)
		if err != nil {
			continue
		}
		if q == htapJoinReport {
			err = checkJoinReport(res, w.snap.join)
		} else {
			err = checkScanReport(res, w.snap.scan)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// htapModel computes both reports' answers over the given rows.
func htapModel(orders []order, region []int64) htapAnswer {
	a := htapAnswer{join: map[int64]agg{}}
	for _, o := range orders {
		if o.amount >= 250 {
			a.scan.count++
			a.scan.sum += o.amount
		}
		g := a.join[region[o.cust-1]]
		g.count++
		g.sum += o.amount
		a.join[region[o.cust-1]] = g
	}
	return a
}

// checkScanReport checks the filtered aggregate against the snapshot's
// answer. Every repeat inside the held snapshot is checked against the
// same answer, so it also checks that the repeats agree.
func checkScanReport(res *starburst.Result, want agg) error {
	return checkTotals("scan report in the held snapshot", res, want.count, want.sum)
}

// checkJoinReport checks the per-region join aggregate against the
// snapshot's answer.
func checkJoinReport(res *starburst.Result, want map[int64]agg) error {
	got := map[int64]agg{}
	for i := range res.Rows {
		var vals [3]int64
		for c := range vals {
			v, err := intCell(res, i, c)
			if err != nil {
				return err
			}
			vals[c] = v
		}
		if _, dup := got[vals[0]]; dup {
			return mismatchf("join report: region %d appears twice", vals[0])
		}
		got[vals[0]] = agg{vals[1], vals[2]}
	}
	if len(got) != len(want) {
		return mismatchf("join report: %d regions, snapshot model has %d", len(got), len(want))
	}
	for r, a := range want {
		if got[r] != a {
			return mismatchf("join report: region %d has COUNT=%d SUM=%d, snapshot model says COUNT=%d SUM=%d",
				r, got[r].count, got[r].sum, a.count, a.sum)
		}
	}
	return nil
}

// check ends the reporting transaction, then closes the DB and reopens
// its directory: every acknowledged insert must be there exactly once,
// checked by row count and by sums over the keys and amounts.
func (w *htap) check() error {
	if err := w.tx.Commit(); err != nil {
		return fmt.Errorf("commit reporting transaction: %w", err)
	}
	if err := w.db.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	db, err := openHTAP(w.dir)
	if err != nil {
		return err
	}
	w.db = db
	return checkDurable(db, w.orders, len(w.region))
}

// checkDurable checks a reopened DB against the model's rows.
func checkDurable(db *starburst.DB, orders []order, customers int) error {
	var ids, amounts int64
	for _, o := range orders {
		ids += o.id
		amounts += o.amount
	}
	res, err := admin(db, "SELECT COUNT(*), SUM(id) FROM orders")
	if err != nil {
		return err
	}
	if err := checkTotals("orders keys after reopen", res, int64(len(orders)), ids); err != nil {
		return err
	}
	if res, err = admin(db, "SELECT COUNT(*), SUM(amount) FROM orders"); err != nil {
		return err
	}
	if err := checkTotals("orders amounts after reopen", res, int64(len(orders)), amounts); err != nil {
		return err
	}
	if res, err = admin(db, "SELECT COUNT(*), SUM(cust) FROM cust"); err != nil {
		return err
	}
	return checkTotals("cust after reopen", res, int64(customers), int64(customers)*int64(customers+1)/2)
}

func (w *htap) close() error {
	var err error
	if w.db != nil {
		err = w.db.Close()
		w.db = nil
	}
	if w.dir != "" {
		err = errors.Join(err, os.RemoveAll(w.dir))
	}
	return err
}
