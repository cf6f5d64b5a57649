package workload

import (
	"fmt"
	"sort"
	"testing"
)

// generationPin is one generated program's recorded identity: the
// program digest (name and every instruction field) and the data
// image's checksum.
type generationPin struct {
	name  string
	seed  int64
	hash  uint64
	image uint64
}

// reseedPin derives a data seed the way perfbench's -seed does; seed 0
// keeps the registry image.
func reseedPin(p Params, seed int64) Params {
	p.Seed ^= int64(uint64(seed) * 0x9E3779B97F4A7C15)
	return p
}

// pinnedBenchmark generates a registry program at a data seed. Seed 0
// goes through Spec (which sizes an .ultra epoch count by measurement)
// and records the epoch count; other seeds reuse it through Generate.
func pinnedBenchmark(name string, seed int64, epochs map[string]int) (*Benchmark, error) {
	if seed == 0 {
		b, err := Spec(name)
		if err == nil {
			epochs[name] = b.Params.Epochs
		}
		return b, err
	}
	p, ok := ParamsFor(name)
	if !ok {
		return nil, errUnknown(name)
	}
	p.Epochs = epochs[name]
	return Generate(reseedPin(p, seed))
}

// TestGenerationPinned pins workload generation bit for bit: all 36
// registry programs (base, .big and .ultra) at two data seeds, and a
// few Random programs, must reproduce the recorded program digest and
// image checksum.
func TestGenerationPinned(t *testing.T) {
	var names []string
	names = append(names, Names()...)
	names = append(names, BigNames()...)
	names = append(names, UltraNames()...)

	got := map[string]generationPin{}
	epochs := map[string]int{}
	for _, seed := range []int64{0, 1} {
		for _, n := range names {
			b, err := pinnedBenchmark(n, seed, epochs)
			if err != nil {
				t.Fatalf("%s seed %d: %v", n, seed, err)
			}
			got[fmt.Sprintf("%s/%d", n, seed)] = generationPin{n, seed, b.Program.Hash(), b.NewMem().Checksum()}
		}
	}
	for _, seed := range randomPinSeeds {
		b := Random(seed)
		got[fmt.Sprintf("random/%d", seed)] = generationPin{"random", seed, b.Program.Hash(), b.NewMem().Checksum()}
	}

	if len(got) != len(generationPins) {
		t.Errorf("generated %d programs, %d pinned", len(got), len(generationPins))
	}
	for _, want := range generationPins {
		key := fmt.Sprintf("%s/%d", want.name, want.seed)
		g, ok := got[key]
		if !ok {
			t.Errorf("%s: not generated", key)
			continue
		}
		if g.hash != want.hash || g.image != want.image {
			t.Errorf("%s: program %016x image %016x, pinned %016x %016x",
				key, g.hash, g.image, want.hash, want.image)
		}
	}
	if t.Failed() {
		// The generated table, for a deliberate re-pin.
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			g := got[k]
			t.Logf("{%q, %d, 0x%016x, 0x%016x},", g.name, g.seed, g.hash, g.image)
		}
	}
}

var randomPinSeeds = []int64{0, 1, 2, 3, 17, 1000}

// generationPins holds the recorded identities. A deliberate change to
// generation re-pins them from the table the failing test logs.
var generationPins = []generationPin{
	{"bzip2.big", 0, 0x68d5018a07208677, 0x251560982ecc3816},
	{"bzip2.big", 1, 0x68d5018a07208677, 0x1347aea9423a3ff1},
	{"bzip2.ultra", 0, 0x569324d87a33a2f2, 0xef8f20169f722211},
	{"bzip2.ultra", 1, 0x569324d87a33a2f2, 0xd75e3603ecfd5594},
	{"bzip2", 0, 0xddf9c59b2d4c39f7, 0xeef972ca0057ea60},
	{"bzip2", 1, 0xddf9c59b2d4c39f7, 0x13099a7c08b7fdb0},
	{"crafty.big", 0, 0x18a5828fc5d59ad0, 0xc1fa1151b5211631},
	{"crafty.big", 1, 0x18a5828fc5d59ad0, 0x07d8764273a29c8d},
	{"crafty.ultra", 0, 0xbd46a1eb3d3fac12, 0x0f47461fa1e14e88},
	{"crafty.ultra", 1, 0xbd46a1eb3d3fac12, 0x59a36f7450499a9a},
	{"crafty", 0, 0x3c86b8422a935133, 0xa867797b95a75db6},
	{"crafty", 1, 0x3c86b8422a935133, 0x2169978f4e480614},
	{"eon.big", 0, 0x583f59b7516e45a3, 0xc720ca986ce883b2},
	{"eon.big", 1, 0x583f59b7516e45a3, 0x60b30c02d1ea64fd},
	{"eon.ultra", 0, 0x7aec14360cb2974a, 0x7d05ce557c093230},
	{"eon.ultra", 1, 0x7aec14360cb2974a, 0x9ed724b5f366c48a},
	{"eon", 0, 0xc141feff875ed267, 0x3faf20a819fe26a9},
	{"eon", 1, 0xc141feff875ed267, 0x624686c415b6f710},
	{"gap.big", 0, 0x5f5335be8ec5dc5a, 0xc90c1ea4143aca9b},
	{"gap.big", 1, 0x5f5335be8ec5dc5a, 0xc1c33d95949026a5},
	{"gap.ultra", 0, 0x03e1d9453cfb6ebd, 0xd570ecaaf03390f4},
	{"gap.ultra", 1, 0x03e1d9453cfb6ebd, 0x8de502f88afd2ce8},
	{"gap", 0, 0xbaf36222653e06f7, 0x135a482ca314fef6},
	{"gap", 1, 0xbaf36222653e06f7, 0xf96b23d0b952bf96},
	{"gcc.big", 0, 0xdef2bb2040b01993, 0x56b5f0ca160147d5},
	{"gcc.big", 1, 0xdef2bb2040b01993, 0x760003037d19b421},
	{"gcc.ultra", 0, 0x0705599be9b80669, 0x232b99f06e68b057},
	{"gcc.ultra", 1, 0x0705599be9b80669, 0xff12d28233f693b6},
	{"gcc", 0, 0x53c9bb8b84cba1e7, 0x2c38c573c796a54d},
	{"gcc", 1, 0x53c9bb8b84cba1e7, 0x0b638c0efd887d79},
	{"gzip.big", 0, 0x3808f4d4d24f5c9a, 0x6ea8df1ec6594267},
	{"gzip.big", 1, 0x3808f4d4d24f5c9a, 0xacb693c2807de3cf},
	{"gzip.ultra", 0, 0x66f939f855fd0fab, 0x397c37a5abdf58b9},
	{"gzip.ultra", 1, 0x66f939f855fd0fab, 0xb508c005d6331851},
	{"gzip", 0, 0x82256afec8c63ed8, 0x3ac23db7c2f7a489},
	{"gzip", 1, 0x82256afec8c63ed8, 0xe3c0f567da09967d},
	{"mcf.big", 0, 0x05e4b84efe424321, 0xf12f257d4536569a},
	{"mcf.big", 1, 0x05e4b84efe424321, 0x3e19c6d5f46856e9},
	{"mcf.ultra", 0, 0xe7d8cca3424218d4, 0x926e44293c06bcb3},
	{"mcf.ultra", 1, 0xe7d8cca3424218d4, 0x708ac34e55814fea},
	{"mcf", 0, 0x4edced2b0779075e, 0x0235873fa77b6943},
	{"mcf", 1, 0x4edced2b0779075e, 0xe48e3f90efc074c1},
	{"parser.big", 0, 0xc34e0b3f0accb414, 0x16564aea0dac6985},
	{"parser.big", 1, 0xc34e0b3f0accb414, 0x30121cc29d268e3e},
	{"parser.ultra", 0, 0x4bd3dc303448986f, 0xa69887d052314a24},
	{"parser.ultra", 1, 0x4bd3dc303448986f, 0x44cee92140ab452d},
	{"parser", 0, 0xea48053053ec048b, 0xdf3e8e7368564dba},
	{"parser", 1, 0xea48053053ec048b, 0x80d89790ecbe74db},
	{"perlbmk.big", 0, 0x3b1518bf00506c7b, 0xab6e18033ab47e6f},
	{"perlbmk.big", 1, 0x3b1518bf00506c7b, 0xcf2f45f84762f3fb},
	{"perlbmk.ultra", 0, 0xcd1a182e541dba50, 0xfaccc851dba2bb81},
	{"perlbmk.ultra", 1, 0xcd1a182e541dba50, 0x61bf7d8e635a352c},
	{"perlbmk", 0, 0x5fba44124a8d3570, 0xc16f08c8ebe3725b},
	{"perlbmk", 1, 0x5fba44124a8d3570, 0x04b543b8d0e61703},
	{"random", 0, 0x821e62a4de95d526, 0xc28bc789b059d05f},
	{"random", 1, 0x6653865b18537c61, 0xa25f38a314806277},
	{"random", 1000, 0xad5ef275fe509635, 0x9b34ee657f9527dd},
	{"random", 17, 0xce4a91f8c7072cad, 0xace4385d0afc4e3a},
	{"random", 2, 0xd5590527940618b7, 0x82ec80b9bdcf158c},
	{"random", 3, 0xabbb2b918fb074bf, 0x169e59eb77b7210a},
	{"twolf.big", 0, 0x1a9d9796bb90755d, 0xef3a311112bf5189},
	{"twolf.big", 1, 0x1a9d9796bb90755d, 0xfc139dbacc7df88d},
	{"twolf.ultra", 0, 0x256ffcfc6750b2ae, 0xf829b1da889adc14},
	{"twolf.ultra", 1, 0x256ffcfc6750b2ae, 0xe7b24e0cba964732},
	{"twolf", 0, 0xbc5f0284dadbd8e4, 0xd4fe5171cb9408eb},
	{"twolf", 1, 0xbc5f0284dadbd8e4, 0x454c4bd7f5274cef},
	{"vortex.big", 0, 0x8ede78ca56384aa2, 0x319c50c52906ddad},
	{"vortex.big", 1, 0x8ede78ca56384aa2, 0x60ec889eac693b43},
	{"vortex.ultra", 0, 0x67268345a0c72d50, 0x94c6c65a893c69cb},
	{"vortex.ultra", 1, 0x67268345a0c72d50, 0xa76d287061816347},
	{"vortex", 0, 0xec2d91db75e45a4e, 0xb80b3b13e5e68af1},
	{"vortex", 1, 0xec2d91db75e45a4e, 0xa6f884c6cd95957c},
	{"vpr.big", 0, 0x42e0c553c43211d0, 0xb631d1aecc796685},
	{"vpr.big", 1, 0x42e0c553c43211d0, 0xd71b146fd0c257f9},
	{"vpr.ultra", 0, 0x1e42968631b86e7d, 0xa35b3a57f53e6074},
	{"vpr.ultra", 1, 0x1e42968631b86e7d, 0x8fd73b37fbba5af2},
	{"vpr", 0, 0x648bec50d8329b76, 0x2a53fa3312c7b113},
	{"vpr", 1, 0x648bec50d8329b76, 0xb12a145b66fad7ce},
}
