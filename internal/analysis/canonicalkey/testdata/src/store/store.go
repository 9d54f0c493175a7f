// Package store mirrors the shape of repro/internal/store for the
// canonicalkey analyzer's testdata: the analyzer matches the type by
// package name and field names, not by import path, precisely so it stays
// testable here.
package store

type Key struct {
	Workload string
	Machine  string
	MaxCores int
}

type SampleKey struct {
	Workload string
	Machine  string
	Cores    int
}
