//go:build amd64 && !amd64.v3

// The pinned digests cover factor values as well as the stream layout, so
// they hold only where the compiler does not fuse multiply-adds (amd64
// below GOAMD64=v3).

package tiled

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/workload"
)

// TestSaveBytesPinned pins Save's exact output for a fixed seeded
// factorization under every tree: the stream format is a compatibility
// contract with files already on disk, so a change to the encoder must
// reproduce these bytes, not merely round-trip through its own Load.
func TestSaveBytesPinned(t *testing.T) {
	want := map[string]string{
		"flat-ts":   "6453595c54063a2dd6f660a2a99e1092dcda2852cb993ac2b93e84f877a10266",
		"flat-tt":   "708eacfedc320713e1315aaa50f6f457ac7d338f1b3e46dab7024d5306a24a48",
		"binary-tt": "f35e2812a55e1964b09c53b4f0caf62e84b3fadb94fe0a32c45276f855a117eb",
		"greedy-tt": "74070efc964a1e91e72657b3760827af4a6baec2b75b67e484cd9ee6c9885ab1",
	}
	for _, tree := range allTrees {
		f := Factor(workload.Normal(81, 33, 27), 8, tree)
		h := sha256.New()
		if err := f.Save(h); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want[tree.Name()] {
			t.Errorf("%s: Save output sha256 = %s, want %s", tree.Name(), got, want[tree.Name()])
		}
	}
}
