package stsparql

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/rdf"
)

// Prepared requests: parse and plan once, run many times over seed rows.
//
// A Compiled plan (plancache.go) is pinned to one source generation; a
// Prepared plan is the opposite trade. It is planned once with a set of
// seed variables certainly bound — so the joins order themselves around
// the seed instead of opening with a full scan — and then runs against
// whatever state the source is in, each run seeded with the rows the
// caller already holds in its hand. This is the shape of an
// event-condition-action rule: the event's bindings (the refinement
// loop's freshly written hotspot subjects) seed the condition, and the
// condition does work proportional to the event, not to the store.
//
// Because a Prepared outlives store generations, its operators keep no
// state across runs: hash-join build sides are built per run, and a
// sub-select — which takes the same seed as the enclosing group — is
// solved once per run. Statistics are read at plan time only; they rank
// join orders and never affect results.

// Prepared is a parsed SELECT or DELETE/INSERT request planned for
// repeated seeded execution. It is safe for concurrent use by several
// evaluators.
type Prepared struct {
	query *Query
	seed  []string

	once  sync.Once
	where *groupPlan  // update WHERE pipeline
	sel   *selectPlan // select pipeline
}

// Prepare parses src as a request whose WHERE clause runs over seed
// rows binding seedVars, positionally and in this order. Planning is deferred to the first run, which
// supplies the source whose statistics rank the joins.
func Prepare(src string, ns *rdf.Namespaces, seedVars ...string) (*Prepared, error) {
	q, err := Parse(src, ns)
	if err != nil {
		return nil, err
	}
	if q.Select == nil && q.Update == nil {
		return nil, fmt.Errorf("stsparql: Prepare wants SELECT or DELETE/INSERT")
	}
	return &Prepared{query: q, seed: seedVars}, nil
}

func (p *Prepared) plan(e *Evaluator) {
	p.once.Do(func() {
		pl := e.newPlanner()
		pl.seed = p.seed
		if p.query.Update != nil {
			p.where = pl.planGroupRoot(p.query.Update.Where, true)
		} else {
			p.sel = pl.planSelect(p.query.Select, false)
		}
	})
}

// PlanPrepared runs a prepared DELETE/INSERT over the seed rows and
// returns its computed plan; an empty seed does no work. Each seed row
// binds the prepared seed variables positionally.
func (e *Evaluator) PlanPrepared(p *Prepared, seed []Row) (*UpdatePlan, error) {
	if p.query.Update == nil {
		return nil, fmt.Errorf("stsparql: PlanPrepared wants a DELETE/INSERT")
	}
	if err := p.checkSeed(seed); err != nil {
		return nil, err
	}
	if len(seed) == 0 {
		return &UpdatePlan{dict: e.dict}, nil
	}
	p.plan(e)
	e.begin(p.seed, seed)
	return e.planUpdate(p.query.Update, p.where, p.seed, seed)
}

// SelectPrepared runs a prepared SELECT over the seed rows,
// materialising the result. Each seed row binds the prepared seed
// variables positionally.
func (e *Evaluator) SelectPrepared(p *Prepared, seed []Row) (*Result, error) {
	if p.query.Select == nil {
		return nil, fmt.Errorf("stsparql: SelectPrepared wants a SELECT")
	}
	if err := p.checkSeed(seed); err != nil {
		return nil, err
	}
	p.plan(e)
	e.begin(p.seed, seed)
	return p.sel.run(e, p.seed, seed)
}

// checkSeed rejects a seed row whose width is not the seed list's: a
// positional row that is short or long would bind the wrong variables.
func (p *Prepared) checkSeed(seed []Row) error {
	for i, row := range seed {
		if len(row) != len(p.seed) {
			return fmt.Errorf("stsparql: seed row %d has %d terms, want %d (?%s)", i, len(row), len(p.seed), strings.Join(p.seed, " ?"))
		}
	}
	return nil
}

// Explain renders the prepared plan as planned against e's source (the
// first run's source when the plan already exists).
func (p *Prepared) Explain(e *Evaluator) string {
	p.plan(e)
	var b planText
	if p.where != nil {
		fmt.Fprintf(&b, "update delete=%d insert=%d seed=%s\n", len(p.query.Update.Delete), len(p.query.Update.Insert), strings.Join(p.seed, ","))
		p.where.explain(&b, "  ")
	} else {
		fmt.Fprintf(&b, "select seed=%s\n", strings.Join(p.seed, ","))
		p.sel.explain(&b, "  ")
	}
	return b.String()
}
