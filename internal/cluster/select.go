package cluster

import (
	"repro/internal/kernel"
)

// PrefixNegMasses returns the clean masses of every nested prefix of the
// subject ordering, distributed: each executor histograms its shard by
// minimum order-rank, the driver merges in rank order and suffix-sums.
//
// Together with N, Marginals, and NegMasses this makes *Model satisfy
// halving.Posterior, so pool selection over the distributed posterior is
// just halving.SelectOn(m, opts) — transport failures surface as the
// returned error.
func (m *Model) PrefixNegMasses(order []int) ([]float64, error) {
	k := len(order)
	if k == 0 {
		return nil, nil
	}
	hist, err := m.fanoutVec(k+1, func(*conn) Request {
		return Request{Op: OpPrefix, Order: order}
	})
	if err != nil {
		return nil, err
	}
	return kernel.SuffixSums(hist), nil
}
