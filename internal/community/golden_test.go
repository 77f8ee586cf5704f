package community

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"lcrb/internal/gen"
	"lcrb/internal/graph"
)

// Golden set-up digests: SHA-256 over the generated edge list and every
// LouvainLevels assignment of pinned instances. They pin set-up bit for
// bit: the generator's edge order and the Louvain partition at every level
// (whose near-tie resolution depends on the operand order of every float
// sum).
// Never regenerate these to make a set-up change pass: a mismatch means
// the change altered the network or the communities every later layer
// sees.
var goldenSetups = []struct {
	name    string
	net     func() (*gen.Network, error)
	seed    uint64 // Louvain seed
	edges   string
	louvain string
}{
	{
		// The pinned hep instance of the sketch golden digests.
		name:    "hep 0.05",
		net:     func() (*gen.Network, error) { return gen.Hep(0.05, 1) },
		seed:    1,
		edges:   "6729f69cc1bb5bc0412406db1c3082b91c7969776761e25bbf47b09116818b81",
		louvain: "4f3e05868840e97792cdf9c5f6e8a51d6e0da81cd120155be6b7578362161a0d",
	},
	{
		name:    "enron 0.1",
		net:     func() (*gen.Network, error) { return gen.Enron(0.1, 0x0601) },
		seed:    0x0602,
		edges:   "f8e3b4ac805649fdb703170431102e21f68c37da9381766731d6ef7f8757e873",
		louvain: "f6ec46914532c3b28b839226d85810460560f0387d5be5405f30f1343841ff29",
	},
	{
		// offline-enron's instance: the paper's Enron scale.
		name:    "enron 1",
		net:     func() (*gen.Network, error) { return gen.Enron(1, 0x0601) },
		seed:    0x0602,
		edges:   "c740aaf3ffa14812bb30902c11610bc56fff7a25b0d3a12714674d8e8dfe4a45",
		louvain: "cf4f076ed627785f605723e0cfc4737fe2fe18435e09df497ae9fb0223dfbc1a",
	},
}

// digest hashes a length-prefixed sequence of int32 lists.
func digest(lists ...[]int32) string {
	h := sha256.New()
	var b [8]byte
	word := func(v int64) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	for _, xs := range lists {
		word(int64(len(xs)))
		for _, x := range xs {
			word(int64(x))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func edgeDigest(g *graph.Graph) string {
	edges := g.Edges()
	flat := make([]int32, 0, 2*len(edges))
	for _, e := range edges {
		flat = append(flat, e.U, e.V)
	}
	return digest([]int32{g.NumNodes()}, flat)
}

func TestGoldenSetupDigests(t *testing.T) {
	for _, tc := range goldenSetups {
		t.Run(tc.name, func(t *testing.T) {
			net, err := tc.net()
			if err != nil {
				t.Fatal(err)
			}
			g := net.Graph
			if got := edgeDigest(g); got != tc.edges {
				t.Errorf("edge digest %s, want golden %s", got, tc.edges)
			}
			var levels [][]int32
			for _, p := range LouvainLevels(g, LouvainOptions{Seed: tc.seed}) {
				levels = append(levels, p.Assign())
			}
			if got := digest(levels...); got != tc.louvain {
				t.Errorf("Louvain digest over %d levels %s, want golden %s", len(levels), got, tc.louvain)
			}
		})
	}
}
