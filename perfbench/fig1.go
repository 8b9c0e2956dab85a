package main

import (
	"fmt"
	"math/rand"

	starburst "repro"
	"repro/internal/datum"
)

// fig1 runs the paper's Figure-1 / section-4 query over the
// quotations/inventory schema on HEAP storage: correlated IN reads
// rotated over the four type constants, with single-row literal
// INSERTs into quotations between them.
type fig1 struct {
	size fig1Size
	rng  *rand.Rand

	db   *starburst.DB
	sess *starburst.Session

	quots []quotation
	inv   []invRow
	// answers holds, per type constant, the multiset the section-4
	// query must return, kept up to date as inserts are acknowledged.
	answers map[string]map[fig1Key]int
}

type fig1Size struct {
	quotations, inventory int
	// readsPerWrite is the number of reads in a round (a multiple of
	// the four type constants); each round ends with one INSERT.
	readsPerWrite int
}

type quotation struct {
	partno   int64
	price    float64
	orderQty int64
	suppno   int64
}

type invRow struct {
	partno, onhand int64
	typ            string
}

// fig1Key is one row of the section-4 query's answer.
type fig1Key struct {
	partno   int64
	price    float64
	orderQty int64
}

var fig1Types = []string{"CPU", "DISK", "RAM", "NIC"}

func newFig1(seed int64, size fig1Size) *fig1 {
	return &fig1{size: size, rng: rand.New(rand.NewSource(seed))}
}

// fig1Query is the section-4 query: quotations whose part is in
// inventory, of the given type, with less on hand than the order asks.
func fig1Query(typ string) string {
	return `SELECT partno, price, order_qty FROM quotations Q1 WHERE Q1.partno IN ` +
		`(SELECT partno FROM inventory Q3 WHERE Q3.onhand_qty < Q1.order_qty AND Q3.type = '` + typ + `')`
}

// newQuotation draws a quotation; one part number in nine has no
// inventory row, so some outer rows never qualify.
func (w *fig1) newQuotation() quotation {
	n := w.size.inventory
	return quotation{
		partno:   int64(w.rng.Intn(n+n/8) + 1),
		price:    float64(w.rng.Intn(1000)) + 0.5,
		orderQty: int64(w.rng.Intn(100)),
		suppno:   int64(w.rng.Intn(10)),
	}
}

func (q quotation) values() string {
	return fmt.Sprintf("(%d, %v, %d, %d)", q.partno, q.price, q.orderQty, q.suppno)
}

func (w *fig1) setup(string) (*starburst.DB, error) {
	// Types go round-robin, so every type constant owns the same number
	// of parts whatever the seed, and the four reads cost alike.
	w.inv = make([]invRow, w.size.inventory)
	for i := range w.inv {
		w.inv[i] = invRow{partno: int64(i + 1), onhand: int64(w.rng.Intn(50)), typ: fig1Types[i%len(fig1Types)]}
	}
	w.quots = make([]quotation, w.size.quotations)
	for i := range w.quots {
		w.quots[i] = w.newQuotation()
	}
	w.answers = map[string]map[fig1Key]int{}
	for _, t := range fig1Types {
		w.answers[t] = fig1Answer(w.quots, w.inv, t)
	}

	db := starburst.Open(starburst.WithPlanCache(256))
	w.db = db
	for _, q := range []string{
		`CREATE TABLE quotations (partno INT, price FLOAT, order_qty INT, suppno INT)`,
		`CREATE TABLE inventory (partno INT, onhand_qty INT, type STRING)`,
	} {
		if _, err := admin(db, q); err != nil {
			return nil, err
		}
	}
	if err := bulkInsert(db, "inventory", len(w.inv), func(i int) string {
		r := w.inv[i-1]
		return fmt.Sprintf("(%d, %d, '%s')", r.partno, r.onhand, r.typ)
	}); err != nil {
		return nil, err
	}
	if err := bulkInsert(db, "quotations", len(w.quots), func(i int) string { return w.quots[i-1].values() }); err != nil {
		return nil, err
	}
	// No index: a unique key on inventory.partno would let the rewrite
	// turn the subquery into a join, and this workload measures the
	// correlated subquery the paper's example compiles to.
	for _, q := range []string{"ANALYZE quotations", "ANALYZE inventory"} {
		if _, err := admin(db, q); err != nil {
			return nil, err
		}
	}
	return db, nil
}

func (w *fig1) begin() error {
	w.sess = w.db.NewSession()
	return nil
}

func (w *fig1) round(r *runner) error {
	for i := 0; i < w.size.readsPerWrite; i++ {
		typ := fig1Types[i%len(fig1Types)]
		res, err := r.exec(classRead, w.sess, fig1Query(typ))
		if err != nil {
			continue
		}
		if err := checkFig1(res, w.answers[typ], typ); err != nil {
			return err
		}
	}
	q := w.newQuotation()
	res, err := r.exec(classWrite, w.sess, "INSERT INTO quotations VALUES "+q.values())
	if err != nil {
		return nil
	}
	if res.Affected != 1 {
		return mismatchf("INSERT INTO quotations affected %d rows, want 1", res.Affected)
	}
	w.quots = append(w.quots, q)
	for _, t := range fig1Types {
		if fig1Qualifies(q, w.inv, t) {
			w.answers[t][q.key()]++
		}
	}
	return nil
}

// check compares the quotations row count with the model's after the
// run; every read was already checked as it ran.
func (w *fig1) check() error {
	res, err := admin(w.db, "SELECT COUNT(*) FROM quotations")
	if err != nil {
		return err
	}
	n, err := intCell(res, 0, 0)
	if err != nil {
		return err
	}
	if n != int64(len(w.quots)) {
		return mismatchf("quotations has %d rows, model has %d", n, len(w.quots))
	}
	return nil
}

func (w *fig1) close() error { return nil }

func (q quotation) key() fig1Key { return fig1Key{q.partno, q.price, q.orderQty} }

// fig1Qualifies evaluates the section-4 predicate for one quotation by
// a nested loop over the inventory rows: some inventory row has the
// quotation's part number, the given type, and less on hand than the
// quotation's order quantity.
func fig1Qualifies(q quotation, inv []invRow, typ string) bool {
	for _, i := range inv {
		if i.partno == q.partno && i.typ == typ && i.onhand < q.orderQty {
			return true
		}
	}
	return false
}

// fig1Answer is the section-4 query's answer over the model's rows, as
// a multiset.
func fig1Answer(quots []quotation, inv []invRow, typ string) map[fig1Key]int {
	ans := map[fig1Key]int{}
	for _, q := range quots {
		if fig1Qualifies(q, inv, typ) {
			ans[q.key()]++
		}
	}
	return ans
}

// checkFig1 compares the engine's answer with the model's multiset.
func checkFig1(res *starburst.Result, want map[fig1Key]int, typ string) error {
	got := make(map[fig1Key]int, len(want))
	for _, row := range res.Rows {
		if len(row) != 3 || row[0].Type() != datum.TInt || row[1].Type() != datum.TFloat || row[2].Type() != datum.TInt {
			return mismatchf("fig1 %s: malformed row %v", typ, row)
		}
		got[fig1Key{row[0].Int(), row[1].Float(), row[2].Int()}]++
	}
	if len(got) != len(want) {
		return mismatchf("fig1 %s: %d distinct rows (%d in all), model has %d distinct", typ, len(got), len(res.Rows), len(want))
	}
	for k, n := range want {
		if got[k] != n {
			return mismatchf("fig1 %s: row %+v appears %d times, model says %d", typ, k, got[k], n)
		}
	}
	return nil
}
