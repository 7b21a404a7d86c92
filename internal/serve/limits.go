package serve

import (
	"fmt"
	"net/http"

	"refocus/internal/arch"
	"refocus/internal/faults"
	"refocus/internal/nn"
	"refocus/internal/sim"
)

// Default resource limits for inline NetworkSpec submissions. Registry
// networks are trusted (they shipped with the binary); an inline spec is
// arbitrary user input, and an absurd one — a million repeated layers, a
// single exa-MAC matmul — would pin a worker slot for the full request
// timeout and starve everyone else. The defaults sit an order of
// magnitude above the largest registry workload (BERT-base, ViT-B/16),
// so every legitimate spec passes untouched.
const (
	// DefaultMaxSpecLayers bounds a spec's layer instances (repeats
	// expanded), matching nn.Network.LayerCount.
	DefaultMaxSpecLayers = 512
	// DefaultMaxSpecGMACs bounds a spec's total multiply-accumulate
	// count in billions, matching nn.Network.TotalMACs / 1e9.
	DefaultMaxSpecGMACs = 2048.0
)

// SpecLimits bounds inline NetworkSpec submissions — the resource guard
// the serving tier applies to user-supplied workloads on top of the
// existing MaxBodyBytes cap. A spec past either limit is rejected with a
// structured 422 (Unprocessable Entity): the JSON was well-formed and
// valid, the workload is just too big to schedule.
type SpecLimits struct {
	// MaxLayers caps layer instances (repeats expanded). <= 0 means
	// DefaultMaxSpecLayers.
	MaxLayers int
	// MaxGMACs caps total multiply-accumulates in billions. <= 0 means
	// DefaultMaxSpecGMACs.
	MaxGMACs float64
}

// WithDefaults fills unset fields.
func (l SpecLimits) WithDefaults() SpecLimits {
	if l.MaxLayers <= 0 {
		l.MaxLayers = DefaultMaxSpecLayers
	}
	if l.MaxGMACs <= 0 {
		l.MaxGMACs = DefaultMaxSpecGMACs
	}
	return l
}

// unprocessable tags an error as a 422 — syntactically valid input the
// service refuses to schedule.
func unprocessable(err error) error {
	return &apiError{status: http.StatusUnprocessableEntity, err: err}
}

// check validates one parsed inline spec against the limits.
func (l SpecLimits) check(net nn.Network) error {
	l = l.WithDefaults()
	if layers := net.LayerCount(); layers > l.MaxLayers {
		return unprocessable(fmt.Errorf(
			"serve: inline NetworkSpec %s exceeds resource limits: %d layer instances > max %d",
			net.Name, layers, l.MaxLayers))
	}
	if gmacs := net.TotalMACs() / 1e9; gmacs > l.MaxGMACs {
		return unprocessable(fmt.Errorf(
			"serve: inline NetworkSpec %s exceeds resource limits: %.1f GMACs > max %.1f",
			net.Name, gmacs, l.MaxGMACs))
	}
	return nil
}

// RouteKey returns the routing identity of one evaluate request: its
// design point, as pointKey derives it from the resolved config and
// fault set. Requests that resolve to the same design point share a key
// however they were spelled, and every cache key a request reads or
// writes starts with it, so the cluster coordinator, which places
// requests on worker shards by this key, sends all of a request's cache
// keys to one shard, and repeats land where their results already are.
// The workloads are not part of the key: (cfg, "all") and
// (cfg, "ResNet-50") share a shard. They are still validated, so bad
// points are rejected at the edge without burning a shard round trip,
// but never built or hashed: a registry name is only looked up, an
// inline spec is parsed and checked against lim. Validation failures
// carry the status tags the evaluate handler uses (400 for bad requests,
// 422 for specs past lim) and the same messages.
func RouteKey(req EvaluateRequest, lim SpecLimits) (string, error) {
	cfg, err := resolveRequestConfig(req)
	if err != nil {
		return "", BadRequest(err)
	}
	fs, err := resolveRequestFaults(req, cfg)
	if err != nil {
		return "", BadRequest(err)
	}
	if _, inline, err := requestSpec(req, lim); err != nil {
		return "", BadRequest(err)
	} else if !inline {
		if err := sim.CheckNetworkName(requestNetworkName(req)); err != nil {
			return "", BadRequest(err)
		}
	}
	cfgHash, err := arch.ConfigHash(cfg)
	if err != nil {
		return "", err
	}
	return pointKey(cfgHash, fs)
}

// pointKey is the identity of one design point: the config hash
// (arch.ConfigHash), joined with "|" and the fault set's hash when a
// non-zero fault set rides along. It is both the routing key and the
// prefix of every result-cache key (see cacheKey).
func pointKey(cfgHash string, fs *faults.FaultSet) (string, error) {
	if fs == nil {
		return cfgHash, nil
	}
	fsHash, err := fs.Hash()
	if err != nil {
		return "", err
	}
	return cfgHash + "|" + fsHash, nil
}

// cacheKey is the result-cache key of one network evaluated at a design
// point: pointKey joined with "|" and nn.NetworkHash. Requests that
// resolve to the same design point and workload (presets, Base
// overlays, raw JSON in any field order, a registered name in any case,
// or an inline spec identical to a registry entry) share a key, so one
// evaluation serves them all.
func cacheKey(point, netHash string) string { return point + "|" + netHash }
