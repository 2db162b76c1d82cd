package sa

import (
	"sort"

	"vpart/internal/core"
)

// subproblems implements the "findSolution(fix)" step of Algorithm 1: greedy
// optimisation of y for a fixed x and of x for a fixed y, both with respect
// to the balanced objective (6).

// solver bundles the model and derived data reused across iterations.
type solver struct {
	m     *core.Model
	sites int
	opts  Options

	// readersOf[a] lists the transactions that read attribute a (ϕ).
	readersOf [][]int
	// lpt lists every attribute by decreasing C4+C2 weight, ties by index:
	// the order in which the greedy y-pass covers unplaced attributes.
	lpt []int
	// txnOrder lists every transaction by decreasing read weight ΣC3, ties
	// by index: the order in which the greedy x-pass places transactions.
	txnOrder []int
	// components groups transactions that transitively share read
	// attributes. Only the disjoint-mode moves (perturb, randomX) use them:
	// without replication a component's members must share a site, so
	// they relocate as one.
	components [][]int
	// compAttrs[ci] lists the attributes read by component ci's members;
	// a disjoint-mode component move relocates them with it.
	compAttrs [][]int

	// Placement constraints: the compiled set and its site-count-flattened
	// tables, never nil (core.EmptyConstraintSet for unconstrained models).
	// The greedy passes always consult them, so one pass serves every
	// model; constrained reports whether the model carries a set at all and
	// picks the constraint-checking branches of the neighbourhood moves,
	// which the unconstrained hot loop skips.
	cs          *core.ConstraintSet
	ct          *core.ConstraintTables
	constrained bool

	// Scratch buffers reused across iterations so the steady-state inner loop
	// does not allocate.
	scratch  *core.Partitioning // intensify's findSolution target
	batch    core.MoveBatch     // intensify's diffed move batch
	missing  []int              // perturb: candidate sites for a new replica
	work     []float64          // greedy passes: running site work
	order    []int              // y-pass: units still to cover, in LPT order
	bytes    []int64            // greedy passes: running site bytes (capacities only)
	dragBuf  []int              // perturb: pending additions of one txn move
	unitSelf [1]int32           // unitMembers' singleton backing (no alloc)
	// y-pass prices for the current x: row a of attrCost/attrLoad (attrs ×
	// sites, flattened) holds attribute a's marginal cost and load on every
	// site; unitCost/unitLoad hold a colocation group's per-site sums.
	attrCost, attrLoad []float64
	unitCost, unitLoad []float64

	// stop, when non-nil, reports whether the run's cancellation facility
	// (deadline or context) has fired. The greedy passes consult it through
	// stopped() inside their per-element loops and switch to a rush path that
	// still produces a covered, single-sited assignment, so a TimeLimit binds
	// mid-pass on large instances instead of only between inner iterations.
	stop     func() bool
	stopTick uint
}

// stopped rations the cancellation probe: the wall-clock (or context) read
// behind s.stop costs far more than one greedy placement, so only every 64th
// call actually consults it.
//
//vpart:noalloc
func (s *solver) stopped() bool {
	if s.stop == nil {
		return false
	}
	s.stopTick++
	if s.stopTick&63 != 0 {
		return false
	}
	return s.stop()
}

func newSolver(m *core.Model, opts Options) *solver {
	s := &solver{m: m, sites: opts.Sites, opts: opts}
	s.work = make([]float64, s.sites)
	s.bytes = make([]int64, s.sites)
	s.cs = m.Constraints()
	s.constrained = s.cs != nil
	if !s.constrained {
		s.cs = core.EmptyConstraintSet(m)
	}
	s.ct = s.cs.Tables(m, s.sites)
	nA, nT := m.NumAttrs(), m.NumTxns()
	s.lpt = make([]int, nA)
	for a := range s.lpt {
		s.lpt[a] = a
	}
	sort.Slice(s.lpt, func(i, j int) bool {
		ai, aj := s.lpt[i], s.lpt[j]
		wi, wj := m.C4(ai)+m.C2(ai), m.C4(aj)+m.C2(aj)
		if wi != wj {
			return wi > wj
		}
		return ai < aj
	})
	weights := make([]float64, nT)
	s.txnOrder = make([]int, nT)
	for t := range s.txnOrder {
		s.txnOrder[t] = t
		for _, tc := range m.TxnTerms(t) {
			weights[t] += tc.C3
		}
	}
	sort.Slice(s.txnOrder, func(i, j int) bool {
		ti, tj := s.txnOrder[i], s.txnOrder[j]
		if weights[ti] != weights[tj] {
			return weights[ti] > weights[tj]
		}
		return ti < tj
	})
	s.attrCost = make([]float64, nA*s.sites)
	s.attrLoad = make([]float64, nA*s.sites)
	s.unitCost = make([]float64, s.sites)
	s.unitLoad = make([]float64, s.sites)
	s.readersOf = make([][]int, nA)
	for t := 0; t < nT; t++ {
		for _, a := range m.TxnReadAttrs(t) {
			s.readersOf[a] = append(s.readersOf[a], t)
		}
	}
	// Union-find over transactions.
	parent := make([]int, nT)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		if parent[i] != i {
			parent[i] = find(parent[i])
		}
		return parent[i]
	}
	for _, readers := range s.readersOf {
		for i := 1; i < len(readers); i++ {
			parent[find(readers[i])] = find(readers[0])
		}
	}
	compOf := make([]int, nT)
	index := map[int]int{}
	for t := 0; t < nT; t++ {
		root := find(t)
		ci, ok := index[root]
		if !ok {
			ci = len(s.components)
			index[root] = ci
			s.components = append(s.components, nil)
		}
		compOf[t] = ci
		s.components[ci] = append(s.components[ci], t)
	}
	s.compAttrs = make([][]int, len(s.components))
	for a, readers := range s.readersOf {
		if len(readers) > 0 {
			ci := compOf[readers[0]]
			s.compAttrs[ci] = append(s.compAttrs[ci], a)
		}
	}
	return s
}

// resetWork zeroes and returns the reusable per-site work accumulator.
func (s *solver) resetWork() []float64 {
	for i := range s.work {
		s.work[i] = 0
	}
	return s.work
}

// lambda returns λ of the model.
func (s *solver) lambda() float64 { return s.m.Options().Lambda }

// solveXGivenY re-assigns transactions to sites for a fixed attribute
// assignment. Only sites that hold all read attributes of a transaction are
// feasible. In disjoint mode that leaves each transaction with reads exactly
// one feasible site, its component's, so components stay together without
// being assigned as units.
func (s *solver) solveXGivenY(p *core.Partitioning) {
	m := s.m
	lam := s.lambda()

	// Base work per site from the write part (independent of x).
	work := s.resetWork()
	for a := 0; a < m.NumAttrs(); a++ {
		if c4 := m.C4(a); c4 != 0 {
			for st := 0; st < s.sites; st++ {
				if p.AttrSites[a][st] {
					work[st] += c4
				}
			}
		}
	}

	costOn := func(t, st int) (cost, load float64) {
		for _, tc := range m.TxnTerms(t) {
			if p.AttrSites[tc.Attr][st] {
				cost += tc.C1
				load += tc.C3
			}
		}
		return cost, load
	}
	feasible := func(t, st int) bool {
		if !s.txnSiteOK(t, st) {
			return false
		}
		for _, a := range m.TxnReadAttrs(t) {
			if !p.AttrSites[a][st] {
				return false
			}
		}
		return true
	}

	cur := 0.0
	for _, w := range work {
		if w > cur {
			cur = w
		}
	}
	// Heavy transactions go first, while sites are still balanced.
	for _, t := range s.txnOrder {
		// Cancellation mid-pass: the remaining transactions simply keep their
		// current (feasible) sites.
		if s.stopped() {
			break
		}
		best := p.TxnSite[t]
		bestScore := 0.0
		found := false
		for st := 0; st < s.sites; st++ {
			if !feasible(t, st) {
				continue
			}
			cost, load := costOn(t, st)
			delta := work[st] + load - cur
			if delta < 0 {
				delta = 0
			}
			score := lam*cost + (1-lam)*delta
			if !found || score < bestScore {
				best, bestScore, found = st, score, true
			}
		}
		// At least the previous site of t is feasible because y only ever
		// extends after it was built for the previous x; if not (fresh y),
		// fall back to the old site and let the caller repair.
		p.TxnSite[t] = best
		_, load := costOn(t, best)
		work[best] += load
		if work[best] > cur {
			cur = work[best]
		}
	}
}

// --- placement-constraint support ------------------------------------------

// txnSiteOK reports whether transaction t may run on site st under the
// compiled constraints (O(1) via the flattened table).
func (s *solver) txnSiteOK(t, st int) bool {
	return s.ct.TxnAllowed[t*s.sites+st]
}

// attrForbiddenAt is the O(1) flattened forbidden-site lookup.
func (s *solver) attrForbiddenAt(a, st int) bool {
	return s.ct.AttrForbidden[a*s.sites+st]
}

// unitMembers returns the attributes that must be placed together with a:
// its colocation group, or just a itself. The returned slice must not be
// modified.
func (s *solver) unitMembers(a int) []int32 {
	if g := s.cs.ColocGroupOf(a); g >= 0 {
		return s.cs.ColocGroupMembers(g)
	}
	s.unitSelf[0] = int32(a)
	return s.unitSelf[:]
}

// sepConflict reports whether a separation partner of attribute a is stored
// on site st in p.
func (s *solver) sepConflict(p *core.Partitioning, a, st int) bool {
	for _, b := range s.cs.SeparatedFrom(a) {
		if p.AttrSites[b][st] {
			return true
		}
	}
	return false
}

// resetBytes zeroes and returns the per-site byte accumulator.
func (s *solver) resetBytes() []int64 {
	for i := range s.bytes {
		s.bytes[i] = 0
	}
	return s.bytes
}

// replicaCap returns the number of replicas the greedy y-pass may give
// attribute a: its MaxReplicas cap, or 1 in disjoint mode.
func (s *solver) replicaCap(a int) int {
	if s.opts.Disjoint {
		return 1
	}
	return s.cs.MaxReplicasOf(a)
}

// unitWidth sums the widths of a placement unit's members. Only capFits
// reads the sum, so without site capacities it is left at 0.
func (s *solver) unitWidth(members []int32) int64 {
	var w int64
	if s.ct.HasCap {
		for _, b := range members {
			w += int64(s.m.Attr(int(b)).Width)
		}
	}
	return w
}

// restricted reports whether some member of a placement unit has a
// forbidden site or a separation partner, i.e. whether unitFits can fail.
func (s *solver) restricted(members []int32) bool {
	for _, b := range members {
		if len(s.cs.Forbidden(int(b))) > 0 || len(s.cs.SeparatedFrom(int(b))) > 0 {
			return true
		}
	}
	return false
}

// unitFits reports whether every member of a placement unit may be stored
// on site st: none is forbidden there or has a separation partner there.
func (s *solver) unitFits(p *core.Partitioning, members []int32, st int) bool {
	for _, b := range members {
		if s.attrForbiddenAt(int(b), st) || s.sepConflict(p, int(b), st) {
			return false
		}
	}
	return true
}

// capFits reports whether site st has room for width more bytes on top of
// the greedy pass's running usage.
func (s *solver) capFits(st int, width int64) bool {
	if !s.ct.HasCap {
		return true
	}
	cap := s.ct.SiteCap[st]
	return cap < 0 || s.bytes[st]+width <= cap
}

// priceAttrs fills attrCost and attrLoad for the transaction assignment
// p.TxnSite: row a holds the marginal objective-(4) cost
// C2(a) + Σ_{t on st} C1(a,t) and the load C4(a) + Σ_{t on st} C3(a,t) of
// storing attribute a on each site st. One walk of a's sparse term list
// prices every site. AttrTerms lists exactly the transactions with a non-zero
// C3 or TransferOwn, in ascending order, so each site's sum is bit for bit
// the dense sum over the site's transactions in index order.
//
//vpart:noalloc
func (s *solver) priceAttrs(p *core.Partitioning) {
	m := s.m
	pen := m.Options().Penalty
	for a := 0; a < m.NumAttrs(); a++ {
		row := a * s.sites
		cost := s.attrCost[row : row+s.sites]
		load := s.attrLoad[row : row+s.sites]
		c2, c4 := m.C2(a), m.C4(a)
		for st := range cost {
			cost[st], load[st] = c2, c4
		}
		for _, tc := range m.AttrTerms(a) {
			st := p.TxnSite[tc.Txn]
			cost[st] += tc.C3 - pen*tc.Xfer
			load[st] += tc.C3
		}
	}
}

// unitPrice returns the per-site cost and load of a placement unit under the
// prices of the last priceAttrs: a single attribute's own row, or the sums
// over a colocation group's members in member order. The slices must not be
// modified and are valid until the next unitPrice call.
//
//vpart:noalloc
func (s *solver) unitPrice(members []int32) (cost, load []float64) {
	if len(members) == 1 {
		row := int(members[0]) * s.sites
		return s.attrCost[row : row+s.sites], s.attrLoad[row : row+s.sites]
	}
	for st := range s.unitCost {
		s.unitCost[st], s.unitLoad[st] = 0, 0
	}
	for _, b := range members {
		row := int(b) * s.sites
		for st := range s.unitCost {
			s.unitCost[st] += s.attrCost[row+st]
			s.unitLoad[st] += s.attrLoad[row+st]
		}
	}
	return s.unitCost, s.unitLoad
}

// place stores attribute a on site st, charging its priced load to the
// site's work (and its width to the site's bytes when some site is capped).
//
//vpart:noalloc
func (s *solver) place(p *core.Partitioning, a, st int) {
	if p.AttrSites[a][st] {
		return
	}
	p.AttrSites[a][st] = true
	s.work[st] += s.attrLoad[a*s.sites+st]
	if s.ct.HasCap {
		s.bytes[st] += int64(s.m.Attr(a).Width)
	}
}

// solveYGivenX computes an attribute assignment for the fixed transaction
// assignment, writing it into p.AttrSites. Hard placements come first:
// single-sitedness of reads (forced replicas), required sites, and the
// colocation closure of both. The still-unplaced units (an attribute, or its
// colocation group) are then covered in LPT order, and beneficial extra
// replicas (negative marginal cost) are added last. Every placement after
// the hard ones respects forbidden sites, separation partners, replica caps
// and site capacities, and is scored on both the cost (λ) and the load (1−λ)
// term. Disjoint mode is a replica cap of 1, so the extra-replica sweep adds
// nothing there. When the hard placements alone overrun a capacity there is
// nothing local search can do about it — the caller's feasibility check
// (Partitioning.Validate) reports it.
func (s *solver) solveYGivenX(p *core.Partitioning) {
	m := s.m
	nA := m.NumAttrs()
	lam := s.lambda()

	for a := 0; a < nA; a++ {
		for st := 0; st < s.sites; st++ {
			p.AttrSites[a][st] = false
		}
	}

	// Every attribute's cost and load on every site depend on x alone, so
	// they are priced once up front; every placement below reads them.
	s.priceAttrs(p)

	// Site byte usage is tracked only when some site has a capacity.
	work := s.resetWork()
	bytes := s.resetBytes()
	hasCap := s.ct.HasCap

	// Hard placements: single-sitedness of reads, required sites, then the
	// colocation closure of both. They are marked first and charged to the
	// sites afterwards in attribute order, so each site's work is summed in
	// one fixed order whatever placed its attributes.
	for t := 0; t < m.NumTxns(); t++ {
		st := p.TxnSite[t]
		for _, a := range m.TxnReadAttrs(t) {
			p.AttrSites[a][st] = true
		}
	}
	for a := 0; a < nA; a++ {
		for _, st := range s.cs.Required(a) {
			if int(st) < s.sites {
				p.AttrSites[a][st] = true
			}
		}
	}
	for g := 0; g < s.cs.NumColocGroups(); g++ {
		members := s.cs.ColocGroupMembers(g)
		if len(members) < 2 {
			continue
		}
		for st := 0; st < s.sites; st++ {
			on := false
			for _, a := range members {
				if p.AttrSites[a][st] {
					on = true
					break
				}
			}
			if on {
				for _, a := range members {
					p.AttrSites[a][st] = true
				}
			}
		}
	}
	for a := 0; a < nA; a++ {
		load := s.attrLoad[a*s.sites : (a+1)*s.sites]
		for st := 0; st < s.sites; st++ {
			if p.AttrSites[a][st] {
				work[st] += load[st]
				if hasCap {
					bytes[st] += int64(m.Attr(a).Width)
				}
			}
		}
	}
	cur := 0.0
	for _, w := range work {
		if w > cur {
			cur = w
		}
	}

	// Cover the still-unplaced units: LPT order over the unit
	// representatives, each unit placed on its best allowed site (capacity
	// headroom respected when any site is capped; relaxed only when no
	// allowed site has room — covering every attribute outranks the cap,
	// and the feasibility check reports the overrun).
	order := s.order[:0]
	for _, a := range s.lpt {
		if p.Replicas(a) > 0 {
			continue
		}
		if g := s.cs.ColocGroupOf(a); g >= 0 && int(s.cs.ColocGroupMembers(g)[0]) != a {
			continue // the group places through its representative
		}
		order = append(order, a)
	}
	s.order = order
	// rush: the cancellation probe fired mid-pass. Remaining units still need
	// a site (every row was cleared above); they take their first allowed site
	// unscored via the same relax fallback the no-site case uses, keeping the
	// assignment covered and constraint-respecting where possible.
	rush := false
	for _, a := range order {
		if !rush && s.stopped() {
			rush = true
		}
		if rush {
			best := s.cs.PlaceAllowedSite(m, p, a, nil)
			if best < 0 {
				best = 0
			}
			for _, b := range s.unitMembers(a) {
				s.place(p, int(b), best)
			}
			if work[best] > cur {
				cur = work[best]
			}
			continue
		}
		members := s.unitMembers(a)
		unitWidth := s.unitWidth(members)
		restricted := s.restricted(members)
		cost, load := s.unitPrice(members)
		best, bestScore, found := -1, 0.0, false
		for pass := 0; pass < 2 && !found; pass++ {
			respectCap := pass == 0
			for st := 0; st < s.sites; st++ {
				if restricted && !s.unitFits(p, members, st) || respectCap && !s.capFits(st, unitWidth) {
					continue
				}
				delta := work[st] + load[st] - cur
				if delta < 0 {
					delta = 0
				}
				score := lam*cost[st] + (1-lam)*delta
				if !found || score < bestScore {
					best, bestScore, found = st, score, true
				}
			}
		}
		if !found {
			// Every site is blocked by a forbid, a separation partner or the
			// capacity: relax in preference order so the unit is at least
			// stored somewhere (the feasibility check reports the leftover
			// violation).
			best = s.cs.PlaceAllowedSite(m, p, a, nil)
			if best < 0 {
				best = 0
			}
		}
		for _, b := range members {
			s.place(p, int(b), best)
		}
		if work[best] > cur {
			cur = work[best]
		}
	}

	// Beneficial extra replicas: a replica whose combined cost and load
	// effect is negative always pays off. Each addition is fully
	// constraint-checked. Skipped entirely once the cancellation probe fires
	// — they are an optional improvement, not needed for feasibility.
	for a := 0; a < nA && !rush; a++ {
		if s.stopped() {
			break
		}
		if g := s.cs.ColocGroupOf(a); g >= 0 && int(s.cs.ColocGroupMembers(g)[0]) != a {
			continue
		}
		// Counting replicas costs a row scan, so only a cap below the site
		// count, which the sweep could actually reach, is tracked.
		maxRep := s.replicaCap(a)
		capped := maxRep < s.sites
		reps := 0
		if capped {
			if reps = p.Replicas(a); reps >= maxRep {
				continue
			}
		}
		members := s.unitMembers(a)
		unitWidth := s.unitWidth(members)
		restricted := s.restricted(members)
		cost, load := s.unitPrice(members)
		for st := 0; st < s.sites; st++ {
			if p.AttrSites[a][st] {
				continue
			}
			if capped && reps >= maxRep {
				break
			}
			if restricted && !s.unitFits(p, members, st) || !s.capFits(st, unitWidth) {
				continue
			}
			delta := work[st] + load[st] - cur
			if delta < 0 {
				delta = 0
			}
			if lam*cost[st]+(1-lam)*delta < 0 {
				for _, b := range members {
					s.place(p, int(b), st)
				}
				reps++
				if work[st] > cur {
					cur = work[st]
				}
			}
		}
	}
}

// scratchSatisfiesConstraints verifies the softer constraints — capacities,
// separations, replica caps — the greedy y-pass may have had to relax on
// its fallback paths. Pins, forbids and colocation hold by
// construction. O(attrs·sites).
func (s *solver) scratchSatisfiesConstraints(p *core.Partitioning) bool {
	m := s.m
	nA := m.NumAttrs()
	if s.ct.HasCap {
		bytes := s.resetBytes()
		for a := 0; a < nA; a++ {
			w := int64(m.Attr(a).Width)
			for st := 0; st < s.sites; st++ {
				if p.AttrSites[a][st] {
					bytes[st] += w
				}
			}
		}
		for st := 0; st < s.sites; st++ {
			if cap := s.ct.SiteCap[st]; cap >= 0 && bytes[st] > cap {
				return false
			}
		}
	}
	for a := 0; a < nA; a++ {
		if max := s.cs.MaxReplicasOf(a); p.Replicas(a) > max {
			return false
		}
		for _, b := range s.cs.SeparatedFrom(a) {
			if int(b) < a {
				continue
			}
			for st := 0; st < s.sites; st++ {
				if p.AttrSites[a][st] && p.AttrSites[b][st] {
					return false
				}
			}
		}
	}
	return true
}
