package sched

// Controller is the adaptive policy's decision loop. The executor
// feeds it one imbalance observation per run (max worker busy-time
// over mean, from metrics.Collector.WindowImbalance — 1.0 is perfectly
// balanced); when the imbalance holds at or above PromoteAbove for
// Patience consecutive runs, Observe returns true exactly once and the
// executor flips its Queue to the stealing layout.
//
// Hysteresis is a one-way ratchet: once promoted, the controller never
// demotes. The symmetric design thrashes by construction — stealing
// lowers the measured imbalance, which would argue for demotion, which
// restores the imbalance — and the stealing layout's overhead on
// already-balanced work is a couple of atomic claims per worker per
// run, far cheaper than re-oscillating the layout. The same ratchet is
// what lets promotion stay on the allocation-free hot path: there is
// exactly one transition, and both layouts were prebuilt for it.
type Controller struct {
	streak   int
	promoted bool
}

const (
	// PromoteAbove is the imbalance ratio at or above which a run
	// counts toward promotion: the slowest worker runs 25% past the
	// mean, i.e. a quarter of the parallel time is spent waiting on
	// stragglers.
	PromoteAbove = 1.25
	// Patience is how many consecutive runs must breach PromoteAbove
	// before promoting: one skewed run can be scheduling noise or a
	// cold cache; three in a row is a workload property.
	Patience = 3
)

// NewController returns a controller that has seen no runs.
func NewController() *Controller { return &Controller{} }

// Observe records one run's measured imbalance and reports whether the
// executor should promote to stealing now. Returns true at most once
// over the controller's lifetime. Runs on the executor hot path: no
// allocation, a handful of compares.
//
//spblock:hotpath
func (c *Controller) Observe(imbalance float64) bool {
	if c.promoted {
		return false
	}
	if imbalance >= PromoteAbove {
		c.streak++
	} else {
		c.streak = 0
	}
	if c.streak >= Patience {
		c.promoted = true
		return true
	}
	return false
}

// Promoted reports whether the ratchet has fired.
func (c *Controller) Promoted() bool { return c.promoted }
