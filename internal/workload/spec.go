package workload

import (
	"fmt"
	"strconv"
	"strings"
)

// This file is the one parser for the textual workload specs shared by the
// CLI flags (-query I,R), the serve -queries files, and the HTTP API's
// "queries" arrays. One grammar, one implementation: a spec accepted over
// HTTP is exactly a spec accepted on the command line.
//
// A product spec is a comma-joined list of per-attribute predicate-set
// specs, one per domain attribute: "I,R" over a 2-attribute domain. The
// per-attribute specs are the Section 3.3 building blocks:
//
//	I     identity (one point predicate per domain element)
//	T     total (the single always-true predicate)
//	P     prefixes (the CDF workload)
//	R     all n(n+1)/2 ranges
//	W<k>  all width-k ranges, e.g. W8; k is written in decimal with no
//	      sign or leading zero, so each width has exactly one spelling

// ParseSpec parses one per-attribute predicate-set spec for an attribute of
// size n.
func ParseSpec(s string, n int) (PredicateSet, error) {
	switch {
	case s == "I":
		return Identity(n), nil
	case s == "T":
		return Total(n), nil
	case s == "P":
		return Prefix(n), nil
	case s == "R":
		return AllRange(n), nil
	case strings.HasPrefix(s, "W"):
		k, err := strconv.Atoi(s[1:])
		if err != nil || k <= 0 || k > n || s[1:] != strconv.Itoa(k) {
			return nil, fmt.Errorf("workload: bad width spec %q for attribute of size %d", s, n)
		}
		return WidthRange(n, k), nil
	}
	return nil, fmt.Errorf("workload: unknown predicate-set spec %q (I|T|P|R|W<k>)", s)
}

// ParseProduct parses a comma-joined product spec ("I,R") against the
// domain's attribute sizes into a weight-1 product.
func ParseProduct(q string, sizes []int) (Product, error) {
	ps, err := ParseProducts([]string{q}, sizes)
	if err != nil {
		return Product{}, err
	}
	return ps[0], nil
}

// ParseProducts parses a batch of product specs against the domain's
// attribute sizes, sharing one PredicateSet instance per distinct
// (attribute, spec) pair across the whole batch. Sharing matters beyond
// allocation thrift: predicate sets lazily cache their n×n Gram matrices,
// so a workload listing the same "R" spec in a thousand products computes
// (and holds) one Gram instead of a thousand.
func ParseProducts(qs []string, sizes []int) ([]Product, error) {
	type termKey struct {
		attr int
		spec string
	}
	shared := make(map[termKey]PredicateSet)
	memo := make(map[string]Product) // whole product per distinct raw spec
	products := make([]Product, len(qs))
	for i, q := range qs {
		if p, ok := memo[q]; ok {
			// Identical raw spec strings share the whole Product — the
			// Terms slice included — so a serving batch of repeated specs
			// parses (and allocates) each distinct spec once.
			products[i] = p
			continue
		}
		specs := strings.Split(q, ",")
		if len(specs) != len(sizes) {
			return nil, fmt.Errorf("workload: query %q has %d specs, domain has %d attributes", q, len(specs), len(sizes))
		}
		terms := make([]PredicateSet, len(specs))
		for a, s := range specs {
			s = strings.TrimSpace(s)
			k := termKey{a, s}
			t, ok := shared[k]
			if !ok {
				var err error
				if t, err = ParseSpec(s, sizes[a]); err != nil {
					return nil, err
				}
				shared[k] = t
			}
			terms[a] = t
		}
		products[i] = NewProduct(terms...)
		memo[q] = products[i]
	}
	return products, nil
}

// ParseSizes parses a comma-separated attribute-size list ("2,115") into
// positive domain sizes.
func ParseSizes(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("workload: bad domain size %q", p)
		}
		out[i] = v
	}
	return out, nil
}
