package census

import "repro/internal/workload"

// CPHMarginalQueries is a twelve-product marginal-style workload over
// CPHDomain(false), in the spec grammar of workload.ParseProducts: the
// workload the end-to-end benchmark's tenants register, and the shape the
// selection benchmarks and the byte-level selection golden run on. SF1's
// own predicate sets are explicit matrices that the spec grammar cannot
// carry.
var CPHMarginalQueries = []string{
	"T,T,T,T,T", "I,T,T,T,T", "T,I,T,T,T", "T,T,I,T,T",
	"T,T,T,I,T", "T,T,T,T,I", "T,I,T,T,P", "I,I,T,T,T",
	"T,T,I,I,T", "I,T,T,T,R", "T,I,T,I,T", "T,T,T,I,W5",
}

// CPHMarginalWorkload builds CPHMarginalQueries over CPHDomain(false).
func CPHMarginalWorkload() (*workload.Workload, error) {
	dom := CPHDomain(false)
	products, err := workload.ParseProducts(CPHMarginalQueries, dom.AttrSizes())
	if err != nil {
		return nil, err
	}
	return workload.New(dom, products...)
}
