package lattice

import "repro/internal/kernel"

// Summary computes the fused posterior digest (kernel.Summary) in a single
// parallel pass: one kernel.Summarize partial per partition, merged in
// ascending partition order with kernel.Merge, so the result is
// deterministic like every other reduction.
func (m *Model) Summary() *kernel.Summary {
	parts := make([]kernel.Partial, m.post.Parts())
	m.post.ForPartitions(func(p int, offset uint64, data []float64) {
		parts[p] = kernel.Summarize(offset, data, make([]float64, m.n))
	})
	return kernel.Merge(m.n, parts)
}
