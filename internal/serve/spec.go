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

// expand is the campaign's scheme × workload product of run descriptions, in
// scheme-major order.
func (spec CampaignSpec) expand() []pushmulticast.RunSpec {
	specs := make([]pushmulticast.RunSpec, 0, len(spec.Schemes)*len(spec.Workloads))
	for _, scheme := range spec.Schemes {
		for _, ws := range spec.Workloads {
			specs = append(specs, pushmulticast.RunSpec{
				Cores: spec.Cores, Scale: spec.Scale, Scheme: scheme, Workload: ws,
				Check: spec.Check, TraceN: spec.TraceN, Faults: spec.Faults,
				WarmStart: spec.WarmStart, Knobs: spec.Knobs,
			})
		}
	}
	return specs
}

// resolve validates the campaign and resolves every run of it. A campaign
// either resolves whole or is rejected whole with a one-line diagnostic;
// naming one run identity twice is a rejection too, because a coordinator
// merges by identity and would stream fewer records than a local daemon.
// lookupSnap resolves a warm-start snapshot id.
func (spec CampaignSpec) resolve(lookupSnap func(id string) ([]byte, uint64, bool)) ([]pushmulticast.RunSpec, []pushmulticast.ResolvedRun, error) {
	if len(spec.Schemes) == 0 {
		return nil, nil, fmt.Errorf("campaign spec: no schemes listed")
	}
	if len(spec.Workloads) == 0 {
		return nil, nil, fmt.Errorf("campaign spec: no workloads listed")
	}
	specs := spec.expand()
	runs := make([]pushmulticast.ResolvedRun, len(specs))
	first := make(map[string]int, len(specs))
	for i, rs := range specs {
		run, err := rs.Resolve(lookupSnap)
		if err != nil {
			return nil, nil, fmt.Errorf("campaign spec: %w", err)
		}
		if j, dup := first[run.Identity()]; dup {
			n := len(spec.Workloads)
			return nil, nil, fmt.Errorf("campaign spec: schemes[%d] x workloads[%d] (%s/%s) names the same run as schemes[%d] x workloads[%d] (%s/%s)",
				i/n, i%n, rs.Scheme, rs.Workload.Name, j/n, j%n, specs[j].Scheme, specs[j].Workload.Name)
		}
		first[run.Identity()] = i
		runs[i] = run
	}
	return specs, runs, nil
}

// oneLine flattens an error message onto one line, preserving the service's
// one-line-diagnostic contract even for wrapped multi-line causes.
func oneLine(err error) string {
	return strings.Join(strings.Fields(err.Error()), " ")
}
