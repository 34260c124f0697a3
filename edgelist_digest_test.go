package saphyra

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"saphyra/internal/datasets"
	"saphyra/internal/graph"
)

// TestEdgeListViewDigest pins the bytes of the build-once path from an
// edge-list file: SaveEdgeList, LoadEdgeList, BuildView and WriteFile on
// two stand-ins at scale 1. The reader's id order, the CSR build's sorted
// adjacency and the grouped view's annotations all land in the file, so a
// faster loader or builder that changes any of them fails here. The file
// is written in native byte order; the digests are the little-endian ones.
func TestEdgeListViewDigest(t *testing.T) {
	if binary.NativeEndian.Uint16([]byte{1, 0}) != 1 {
		t.Skip("view files are native byte order; the pinned digests are little-endian")
	}
	want := map[string]string{
		"flickr-sim":  "8a06e417de53b0f9108b9478061efb4c02c551cbe93fd1c158e8cc0d180da5e4",
		"usaroad-sim": "909c2f2e571da6a0a096087e0a5619c5a4e6ae8ed4d9fc5b34d4aec4408d9dee",
	}
	dir := t.TempDir()
	for name, digest := range want {
		net, err := datasets.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		edges := filepath.Join(dir, name+".txt")
		if err := graph.SaveEdgeList(edges, net.Build(1)); err != nil {
			t.Fatal(err)
		}
		g, ids, err := LoadEdgeList(edges)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name+".sbcv")
		if err := BuildView(g, ids).WriteFile(path); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); got != digest {
			t.Errorf("%s: view file sha256 %s, want %s", name, got, digest)
		}
	}
}
