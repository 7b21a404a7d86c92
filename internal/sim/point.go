package sim

import (
	"refocus/internal/arch"
	"refocus/internal/faults"
	"refocus/internal/nn"
)

// Point is a design point resolved for evaluation: a validated config
// with its canonical hash, the fault set it degrades by, and the networks
// to evaluate with their content hashes. Result-cache keys and job
// identities are built from these hashes alone, so a caller that
// evaluates many points over one workload — a search's candidates, a
// campaign's trials — resolves the workload once and passes Points along
// instead of re-hashing it per point. A Point is read-only once built:
// copies share its slices.
type Point struct {
	Config     arch.SystemConfig
	ConfigHash string
	// Faults is the non-zero fault set the point degrades by; nil means
	// the healthy machine.
	Faults *faults.FaultSet
	// Networks are the workloads in report order; NetworkHashes their
	// nn.NetworkHash digests, index for index.
	Networks      []nn.Network
	NetworkHashes []string
}

// ResolvePoint hashes cfg and each of nets: the healthy point they make.
// The caller has validated both.
func ResolvePoint(cfg arch.SystemConfig, nets []nn.Network) (Point, error) {
	hash, err := arch.ConfigHash(cfg)
	if err != nil {
		return Point{}, err
	}
	p := Point{Config: cfg, ConfigHash: hash, Networks: nets, NetworkHashes: make([]string, len(nets))}
	for i, net := range nets {
		if p.NetworkHashes[i], err = nn.NetworkHash(net); err != nil {
			return Point{}, err
		}
	}
	return p, nil
}
