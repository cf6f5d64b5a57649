package mem

import (
	"math/rand"
	"testing"
)

// benchAddrs returns 4096 word addresses in one of the access patterns
// the memory's clients produce: one page walked sequentially, eight
// streams 1 MiB apart advanced in turn (the generators' and kernels'
// interleaved arrays), or uniformly random words over 4 MiB.
func benchAddrs(pattern string) []uint64 {
	addrs := make([]uint64, 4096)
	rng := rand.New(rand.NewSource(1))
	for i := range addrs {
		switch pattern {
		case "seq":
			addrs[i] = uint64(i%pageWords) << wordShift
		case "streams8":
			addrs[i] = uint64(i%8)<<20 + uint64(i/8)<<wordShift
		case "random":
			addrs[i] = uint64(rng.Intn(1<<19)) << wordShift
		}
	}
	return addrs
}

var benchSink uint64

// benchMemory is a clone of a frozen image covering every address, as a
// run's memory is; it has written (and so owns) every page iff owned.
func benchMemory(addrs []uint64, owned bool) *Memory {
	img := New()
	for _, a := range addrs {
		img.Write64(a, a)
	}
	img.Freeze()
	m := img.Clone()
	if owned {
		for _, a := range addrs {
			m.Write64(a, a)
		}
	}
	return m
}

func BenchmarkRead64(b *testing.B) {
	for _, pattern := range []string{"seq", "streams8", "random"} {
		b.Run(pattern, func(b *testing.B) {
			addrs := benchAddrs(pattern)
			m := benchMemory(addrs, false)
			var sum uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sum += m.Read64(addrs[i&(len(addrs)-1)])
			}
			benchSink = sum
		})
	}
}

func BenchmarkWrite64(b *testing.B) {
	for _, pattern := range []string{"seq", "streams8", "random"} {
		b.Run(pattern, func(b *testing.B) {
			addrs := benchAddrs(pattern)
			m := benchMemory(addrs, true)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Write64(addrs[i&(len(addrs)-1)], uint64(i))
			}
		})
	}
}
