package ckey

import (
	"fmt"

	"store"
)

type workload struct{ name string }

func (w workload) Name() string { return w.name }

func Good(w workload, mach string) store.Key {
	return store.Key{Workload: w.Name(), Machine: mach}
}

func GoodConcat(w, m workload) store.Key {
	return store.Key{Workload: w.Name() + "+" + m.Name()}
}

func Bad(w workload, variant int) store.Key {
	return store.Key{Workload: fmt.Sprintf("%s-%d", w.Name(), variant)} // want `fmt\.Sprintf builds the store\.Key\.Workload identity`
}

func BadConcat(w workload, variant string) store.Key {
	return store.Key{Workload: w.Name() + "?" + variant} // want `string concatenation builds the store\.Key\.Workload identity`
}

func BadMachine(host string) store.Key {
	return store.Key{Machine: "host-" + host} // want `string concatenation builds the store\.Key\.Machine identity`
}

func GoodSample(w workload, mach string) store.SampleKey {
	return store.SampleKey{Workload: w.Name(), Machine: mach, Cores: 2}
}

func BadSample(w workload, variant int) store.SampleKey {
	return store.SampleKey{Workload: fmt.Sprintf("%s-%d", w.Name(), variant), Cores: 2} // want `fmt\.Sprintf builds the store\.SampleKey\.Workload identity`
}

// seed derives a simulator seed from a canonical scenario name.
//
//estima:canonical name
func seed(name string, cores int) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 1099511628211
	}
	return h ^ uint64(cores)
}

func SeedSites(w workload, hostname string) uint64 {
	s := seed(w.Name(), 4)
	s ^= seed(fmt.Sprintf("w-%s", hostname), 4) // want `fmt\.Sprintf builds the name identity`
	v := fmt.Sprintf("w-%s", hostname)          // want `fmt\.Sprintf builds the name identity`
	s ^= seed(v, 2)
	return s
}

func Allowed(hostname string) store.Key {
	return store.Key{Workload: "w-" + hostname} //estima:allow canonicalkey fixture
}
