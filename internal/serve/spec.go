// Package serve is the simd campaign service: an HTTP/JSON front end over
// the simulation harness. A campaign names a machine scale, a set of schemes,
// and a set of workloads; the service expands the cross product into run
// descriptions (pushmulticast.RunSpec), resolves each through the one
// validator, deduplicates them through the campaign run memo (identical
// concurrent requests share one simulation), schedules them across a bounded
// worker pool with fair per-tenant queueing, and streams per-run results back
// as NDJSON. Completed results are journaled by deterministic run identity,
// so a repeated campaign is served without re-simulating.
package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"pushmulticast"
)

// CampaignSpec is the POST /campaigns request body. The cross product
// Schemes × Workloads expands into one run each; every other run field is
// shared (see pushmulticast.RunSpec for their meaning). The whole spec is
// validated up front, before any run is scheduled, and every rejection is a
// one-line diagnostic (the same contract the CLI tools keep) returned as
// HTTP 400.
type CampaignSpec struct {
	// Tenant names the fair-queueing bucket this campaign's runs wait in;
	// empty selects "default". Tenants round-robin for worker slots, so one
	// tenant's burst cannot starve another's interactive run.
	Tenant string `json:"tenant"`
	Cores  int    `json:"cores"`
	Scale  string `json:"scale"`
	// Schemes lists the design points to run (see the pushsim -scheme flag;
	// case-insensitive). Empty is rejected.
	Schemes []string `json:"schemes"`
	// Workloads lists the workload set; collective workloads accept
	// parameters. Empty is rejected.
	Workloads []pushmulticast.WorkloadSpec `json:"workloads"`
	Check     bool                         `json:"check"`
	TraceN    int                          `json:"trace_n"`
	Faults    *pushmulticast.FaultSpec     `json:"faults"`
	WarmStart string                       `json:"warm_start"`
	Knobs     *pushmulticast.KnobSpec      `json:"knobs"`
}

// tenantOrDefault resolves a request's fair-queueing bucket.
func tenantOrDefault(tenant string) string {
	if tenant == "" {
		return "default"
	}
	return tenant
}

// decodeStrict parses a request body strictly: unknown fields are rejected
// so a typo'd knob can never silently run a different campaign than the
// caller meant. Every error is one line, prefixed with what was being read.
func decodeStrict(r io.Reader, what string, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("%s: %v", what, oneLine(err))
	}
	return nil
}

// runs is the number of runs the campaign expands into: its scheme ×
// workload product.
func (spec CampaignSpec) runs() int { return len(spec.Schemes) * len(spec.Workloads) }

// run is the description of the campaign's i'th run, in scheme-major order.
func (spec CampaignSpec) run(i int) pushmulticast.RunSpec {
	n := len(spec.Workloads)
	return pushmulticast.RunSpec{
		Cores: spec.Cores, Scale: spec.Scale, Scheme: spec.Schemes[i/n], Workload: spec.Workloads[i%n],
		Check: spec.Check, TraceN: spec.TraceN, Faults: spec.Faults,
		WarmStart: spec.WarmStart, Knobs: spec.Knobs,
	}
}

// resolve validates the campaign and resolves every run of it, making each
// a job through route. A campaign either resolves whole or is rejected whole
// with a one-line diagnostic; naming one run identity twice is a rejection
// too, because a coordinator merges by identity and would stream fewer
// records than a local daemon. route must have no side effect a rejection
// would have to undo. lookupSnap resolves a warm-start snapshot id.
func (spec CampaignSpec) resolve(lookupSnap func(id string) ([]byte, uint64, bool), route func(pushmulticast.ResolvedRun) job) ([]job, error) {
	if len(spec.Schemes) == 0 {
		return nil, fmt.Errorf("campaign spec: no schemes listed")
	}
	if len(spec.Workloads) == 0 {
		return nil, fmt.Errorf("campaign spec: no workloads listed")
	}
	jobs := make([]job, spec.runs())
	first := make(map[string]int, len(jobs))
	for i := range jobs {
		run, err := spec.run(i).Resolve(lookupSnap)
		if err != nil {
			return nil, fmt.Errorf("campaign spec: %w", err)
		}
		if j, dup := first[run.Identity()]; dup {
			n := len(spec.Workloads)
			return nil, fmt.Errorf("campaign spec: schemes[%d] x workloads[%d] (%s/%s) names the same run as schemes[%d] x workloads[%d] (%s/%s)",
				i/n, i%n, spec.Schemes[i/n], spec.Workloads[i%n].Name, j/n, j%n, spec.Schemes[j/n], spec.Workloads[j%n].Name)
		}
		first[run.Identity()] = i
		jobs[i] = route(run)
	}
	return jobs, nil
}

// oneLine flattens an error message onto one line, preserving the service's
// one-line-diagnostic contract even for wrapped multi-line causes.
func oneLine(err error) string {
	return strings.Join(strings.Fields(err.Error()), " ")
}
