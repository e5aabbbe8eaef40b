package fleet

import (
	"reflect"
	"strings"
	"testing"

	"tia/internal/gen"
	"tia/internal/service"
)

// Routing-key properties: what must change a job's affinity key and what
// must not. The key is only a hint — a miss costs a worker's cache hit,
// never a wrong result — but a field that changes the answer and not the
// key would collapse distinct jobs onto one worker, and a field that
// changes the key and not the answer would scatter one job's cache hits
// across the fleet.

// cosmeticVariants respells a netlist without touching a token: comment
// lines, trailing blanks and comments, blank lines and re-indentation.
func cosmeticVariants(src string) map[string]string {
	lines := strings.Split(src, "\n")
	edit := func(f func(string) string) string {
		out := make([]string, len(lines))
		for i, l := range lines {
			out[i] = f(l)
		}
		return strings.Join(out, "\n")
	}
	return map[string]string{
		"comment lines":   "// generated netlist\n" + edit(func(l string) string { return "// next line\n" + l }),
		"trailing blanks": edit(func(l string) string { return l + " \t " }),
		"trailing notes":  edit(func(l string) string { return l + "   // note" }),
		"blank lines":     "\n\n" + edit(func(l string) string { return l + "\n\n" }),
		"re-indentation":  edit(func(l string) string { return "\t  " + strings.Join(strings.Fields(l), "   ") }),
	}
}

// TestAffinityKeyCosmeticInvariance: over generated netlists, every
// cosmetic respelling keeps the key, and distinct netlists get distinct
// keys.
func TestAffinityKeyCosmeticInvariance(t *testing.T) {
	seen := map[string]int64{}
	for seed := int64(1); seed <= 40; seed++ {
		src := gen.Netlist(gen.Params{Seed: seed})
		key := affinityKey(&service.JobRequest{Netlist: src, MaxCycles: 50_000})
		for name, v := range cosmeticVariants(src) {
			if got := affinityKey(&service.JobRequest{Netlist: v, MaxCycles: 50_000}); got != key {
				t.Errorf("seed %d: %s changed the routing key", seed, name)
			}
		}
		if prev, dup := seen[key]; dup && gen.Netlist(gen.Params{Seed: prev}) != src {
			t.Errorf("seeds %d and %d: distinct netlists share a routing key", prev, seed)
		}
		seen[key] = seed
	}
}

// routeNeutral names the JobRequest and FaultCampaignRequest fields that
// must not change the route: retired stepping knobs that are accepted
// and ignored, and per-submission identity, bypass and deadline fields.
// Every other field changes the answer and must change the key; a new
// field fails this test until it is classified here or in the key.
var routeNeutral = map[string]bool{
	"Compiled": true, "Shards": true, "Lanes": true,
	"JobID": true, "NoCache": true, "DeadlineMs": true, "ResumeSnapshot": true,
}

// perturb returns a copy of v with a different value.
func perturb(t *testing.T, v reflect.Value) reflect.Value {
	out := reflect.New(v.Type()).Elem()
	switch v.Kind() {
	case reflect.String:
		out.SetString(v.String() + "x")
	case reflect.Int, reflect.Int64:
		out.SetInt(v.Int() + 1)
	case reflect.Float64:
		out.SetFloat(v.Float() + 0.25)
	case reflect.Bool:
		out.SetBool(!v.Bool())
	case reflect.Slice:
		out.Set(reflect.Append(v, reflect.ValueOf(byte(1))))
	default:
		t.Fatalf("no perturbation for a %s field", v.Kind())
	}
	return out
}

// TestAffinityKeyFields perturbs every field of a workload job, of its
// fault campaign, and of a netlist job one at a time.
func TestAffinityKeyFields(t *testing.T) {
	workload := service.JobRequest{
		Workload: "dmm", Size: 8, Seed: 3, Policy: 1, IssueWidth: 2, MemLatency: 1,
		ChannelCapacity: 4, ChannelLatency: 1, MaxCycles: 9000, Trace: true,
		Faults: &service.FaultCampaignRequest{
			Runs: 4, Seed: 7, Sites: "a", FromCycle: 1, ToCycle: 90, JitterRate: 0.5,
			JitterMax: 2, Stalls: 1, StallMax: 3, Freezes: 1, FreezeMax: 3,
			FlipRate: 0.25, DropRate: 0.25, DupRate: 0.25, Lanes: 8,
		},
	}
	netlist := service.JobRequest{Netlist: gen.Netlist(gen.Params{Seed: 1}), MaxCycles: 9000}
	// A netlist job carries its own configuration: the workload
	// parameters do not reach its result, so they must not move its route.
	// (Faults do: the server rejects a netlist campaign.)
	netlistNeutral := map[string]bool{
		"Workload": true, "Size": true, "Seed": true, "Policy": true, "IssueWidth": true,
		"MemLatency": true, "ChannelCapacity": true, "ChannelLatency": true,
	}

	check := func(label string, base service.JobRequest, set func(*service.JobRequest) reflect.Value, neutral map[string]bool) {
		key := affinityKey(&base)
		typ := set(&base).Type()
		for i := 0; i < typ.NumField(); i++ {
			name := typ.Field(i).Name
			req := base
			if base.Faults != nil {
				fc := *base.Faults
				req.Faults = &fc
			}
			f := set(&req).Field(i)
			if f.Kind() == reflect.Pointer {
				if f.IsNil() {
					f.Set(reflect.New(f.Type().Elem()))
				} else {
					f.Set(reflect.Zero(f.Type()))
				}
			} else {
				f.Set(perturb(t, f))
			}
			changed := affinityKey(&req) != key
			if want := !routeNeutral[name] && !neutral[name]; changed != want {
				t.Errorf("%s: perturbing %s changed the key = %v, want %v", label, name, changed, want)
			}
		}
	}
	check("workload job", workload, func(r *service.JobRequest) reflect.Value { return reflect.ValueOf(r).Elem() }, nil)
	check("fault campaign", workload, func(r *service.JobRequest) reflect.Value { return reflect.ValueOf(r.Faults).Elem() }, nil)
	check("netlist job", netlist, func(r *service.JobRequest) reflect.Value { return reflect.ValueOf(r).Elem() }, netlistNeutral)
}

// TestAffinityKeyIgnoresLanes pins the faults.lanes fix: the key hashes
// a copy of the campaign with Lanes zeroed, and leaves the request's own
// Lanes alone.
func TestAffinityKeyIgnoresLanes(t *testing.T) {
	withLanes := &service.JobRequest{Workload: "dmm", Faults: &service.FaultCampaignRequest{Runs: 4, Lanes: 8}}
	without := &service.JobRequest{Workload: "dmm", Faults: &service.FaultCampaignRequest{Runs: 4}}
	if affinityKey(withLanes) != affinityKey(without) {
		t.Error("faults.lanes changed the routing key")
	}
	if withLanes.Faults.Lanes != 8 {
		t.Errorf("affinityKey rewrote the request's lanes to %d", withLanes.Faults.Lanes)
	}
}
