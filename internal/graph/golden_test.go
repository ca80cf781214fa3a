package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
)

// csrDigest is the sha256 of g's little-endian Off‖Dst‖Wt: two graphs with
// the same digest have the same rows, in the same order, with the same
// weights.
func csrDigest(g *CSR) string {
	h := sha256.New()
	var b [4]byte
	for _, s := range [][]uint32{g.Off, g.Dst, g.Wt} {
		for _, v := range s {
			binary.LittleEndian.PutUint32(b[:], v)
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenGraphDigests pins every generator's output, byte for byte, at the
// sizes the experiments and the benchmark use. The values were recorded from
// the edge-list generators that staged every edge in a []Edge for FromEdges;
// a generator that writes its rows in place must reproduce them exactly.
// Never regenerate them to make a change pass: a moved RNG draw changes every
// figure and every benchmark input built from that generator.
func TestGoldenGraphDigests(t *testing.T) {
	for _, tc := range []struct {
		name string
		gen  func() *CSR
		want string
	}{
		{"cage-1500/42", func() *CSR { return Cage(1500, 34, 80, 42) }, "b039b2d3e2a37ec2e76e2ab0ec619c6c0e3a2c1fd4e19335216a96154b80ba46"},
		{"cage-32000/42", func() *CSR { return Cage(32000, 34, 80, 42) }, "0b0bb954afa8b81eaa33525abd612936a01a86aedcfe041b245bdfe48e74be82"},
		{"cage-80000/42", func() *CSR { return Cage(80000, 34, 80, 42) }, "06aefbd12998f29c0efce80be72cb4e08a9f2294df90beee6258478f9535548a"},
		{"cage-1500/43", func() *CSR { return Cage(1500, 34, 80, 43) }, "bfefbb09efa86d17ea234bca3e76fc1489c7a96f6bda084f597484c2d74be4a7"},
		{"cage-32000/43", func() *CSR { return Cage(32000, 34, 80, 43) }, "6c51d6ff97f9df9f9bae61fe1f8cc345254850f12693ae29bbd9236035cf2c2e"},
		{"cage-80000/43", func() *CSR { return Cage(80000, 34, 80, 43) }, "c25aec7d15ebf8a0131a78666a83cef5c15457984ea5789b572741b632b0aec1"},
		{"web-1500/7", func() *CSR { return Web(1500, 7) }, "83718bc191829344c8210a6feb8aecfc39fb524729722ceeea0b9c842d2c286b"},
		{"web-10000/7", func() *CSR { return Web(10000, 7) }, "4e0eb5063287cecb3f5faf7e42faf82633cdd0d0ce1eb164f3062d930c4aa707"},
		{"web-20000/7", func() *CSR { return Web(20000, 7) }, "b3a9108ac5a28aa32209f4893e874a6e2876c7e5afdf54c572dec1aea50ac47e"},
		{"web-1500/42", func() *CSR { return Web(1500, 42) }, "1dabeb13df4570fbdc349519820a8d4b707331a64124c2f945f1ef3983332a69"},
		{"web-10000/42", func() *CSR { return Web(10000, 42) }, "c85d12206573b0fc2b7a1ea1c3f50eef36232a793b857e946332fec34e8f4bda"},
		{"web-20000/42", func() *CSR { return Web(20000, 42) }, "f546ca630e8b1ecbac7a14bb088f50138f400ae71b1cbe5d7e62c889cc136f5f"},
		{"lj-1200/7", func() *CSR { return LJ(1200, 7) }, "13d4fde6c8e6eb6b2fbd7d7c169e343f47006245b37109ccb7543b3e077c90ae"},
		{"lj-4000/7", func() *CSR { return LJ(4000, 7) }, "0c894b03cc3d0f49821cb49ce1ee8f937554caf7384cc4888ee2a8a1f79e2b46"},
		{"lj-1200/42", func() *CSR { return LJ(1200, 42) }, "9e704717893532ff6da96d0b08eee30196f6494a8573a57683d271bf03b2bb6a"},
		{"lj-4000/42", func() *CSR { return LJ(4000, 42) }, "eb2b4cc02050031547271f88a5d67d81e981e7a9ad1742643b3c45f6d0c03170"},
		{"road-48/7", func() *CSR { return Road(48, 48, 7) }, "fd7c298168ae93e98eac3e3937021e41a76b7135428941289cfea597431a50e0"},
		{"road-240/7", func() *CSR { return Road(240, 240, 7) }, "1c56c8d28c49ec86e1efe089a865991020c3d9b8e24c464f91df3efd8f39b78e"},
		{"road-48/42", func() *CSR { return Road(48, 48, 42) }, "25141320f049fa3067bca1cf0e8c61e5f21525e30c620b99443f05e9b800e22a"},
		{"road-240/42", func() *CSR { return Road(240, 240, 42) }, "88a457cd10dd13366d850e984a9d4e934e595f6abbd9859577f18578b5e40995"},
		{"grid-32/7", func() *CSR { return Grid(32, 32, 100, 7) }, "18d03e8b0a3b8ddf1b899f00f3ff4972bc2ad1e389d2c4e492b3519b48813ba3"},
		{"grid-128/7", func() *CSR { return Grid(128, 128, 100, 7) }, "522fe14e7e2be02866549c925851f26f8b6dccb9e39d9a0b1ce73675348ee420"},
		{"grid-32/42", func() *CSR { return Grid(32, 32, 100, 42) }, "492a3b5dbb5ee2a7bc510bf5ca594c0d5f502616268d43c5f447f0526d064fa5"},
		{"grid-128/42", func() *CSR { return Grid(128, 128, 100, 42) }, "87664246048eb15abcbfb4c634636d3b2895fddb33086e139ad96c7523490d4d"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.gen()
			if got := csrDigest(g); got != tc.want {
				t.Fatalf("digest %s, want %s (%d nodes, %d edges)", got, tc.want, g.NumNodes(), g.NumEdges())
			}
		})
	}
}
