package fleet

import (
	"context"
	"fmt"
	"sync"

	"leakydnn/internal/attack"
	"leakydnn/internal/chaos"
	"leakydnn/internal/par"
)

// Class-shared model sets: the fleet's training-dedup layer.
//
// Model training is the fleet's dominant cost (one TrainModels run dwarfs a
// device's whole collection), yet devices of the same (class, tenancy-mix,
// scale) group train on identically-distributed profiling data — the
// profiled workloads, the class-mutated device config and every time
// constant agree; only the derived seed differs. A modelShare trains each
// group exactly once, from its lowest-index member's spec, and every other
// member references the shared set.
//
// Determinism argument: the shared set is a pure function of the
// representative's spec, and the representative is the group's lowest
// planned index — prefix-stable, so growing the fleet can only add groups,
// never change an existing group's representative. Execution order doesn't
// matter either: whichever device coordinator reaches the group first trains
// from the representative's spec, not its own. The cost is a widened
// dependency: a non-representative device's extraction is now a function of
// (its spec, its representative's spec) instead of its spec alone, which is
// why the journal's device keys record the model source.
//
// Device-level fault injection never reaches shared training: groups are
// keyed and trained on the planned specs, before the supervisor splices
// per-attempt FleetChaos faults in, so a crashing victim attempt cannot
// poison — or be retried into — the model set its whole group shares.

// modelGroupID is the class-sharing identity: an explicit field-by-field
// enumeration (like the journal's deviceKey — never reflection over
// eval.Scale, which carries function values) of everything profiled-trace
// collection and training depend on, minus the per-device identity fields
// (index, name, derived seed, victim, spy allocation) and minus the
// per-attempt device fault plan.
func modelGroupID(spec DeviceSpec) string {
	measurement := spec.Scale.Chaos
	measurement.Device = chaos.DeviceFaults{}
	return fmt.Sprintf("%s|%s|%d|%s|%g|%d|%d|%d|%+v",
		spec.Class, spec.Mix, spec.Tenants,
		spec.Scale.Name, spec.Scale.TimeScale, spec.Scale.Iterations,
		int64(spec.Scale.IterGap), int64(spec.Scale.SamplePeriod), measurement)
}

// modelEntry is one group's single-flight cell.
type modelEntry struct {
	once   sync.Once
	rep    DeviceSpec // lowest-index member; the spec the set is trained from
	models *attack.Models
	err    error
}

// modelShare maps group ids to their single-flight training cells. Built once
// per campaign from the planned specs; safe for concurrent modelsFor calls.
type modelShare struct {
	groups map[string]*modelEntry
}

// newModelShare assigns every spec to its group, electing the lowest-index
// member of each group as its representative.
func newModelShare(specs []DeviceSpec) *modelShare {
	s := &modelShare{groups: make(map[string]*modelEntry)}
	for _, spec := range specs {
		id := modelGroupID(spec)
		if _, ok := s.groups[id]; !ok {
			s.groups[id] = &modelEntry{rep: spec}
		}
	}
	return s
}

// entryFor returns spec's group cell. Specs carrying per-attempt retry seeds
// or fault plans resolve to the same cell as their planned original.
func (s *modelShare) entryFor(spec DeviceSpec) *modelEntry {
	return s.groups[modelGroupID(spec)]
}

// modelsFor returns the shared trained set for spec's group, training it on
// first use (all work on the shared pool). The second return is the
// representative's device index — the model set's provenance, reported in
// DeviceResult.ModelRep and journaled in the device key.
func (s *modelShare) modelsFor(spec DeviceSpec, pool *par.Pool) (*attack.Models, int, error) {
	e := s.entryFor(spec)
	if e == nil {
		// Only reachable if a caller runs a spec that was not in the planned
		// set the share was built from.
		return nil, -1, fmt.Errorf("fleet: %s: no model group planned for this spec", spec.Name)
	}
	e.once.Do(func() {
		e.models, e.err = e.rep.Scale.TrainModelSet(context.Background(), pool)
		if e.err != nil {
			e.err = fmt.Errorf("fleet: %s: %w", e.rep.Name, e.err)
		}
	})
	if e.err != nil {
		return nil, e.rep.Index, fmt.Errorf("fleet: %s: shared model set (trained from dev%03d): %w",
			spec.Name, e.rep.Index, e.err)
	}
	return e.models, e.rep.Index, nil
}
