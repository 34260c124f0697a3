package bicomp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"unsafe"

	"saphyra/internal/faultinject"
	"saphyra/internal/graph"
)

// TestChecksumCatchesBitRot: any flipped bit in the body must fail the
// open-time checksum — the defense a size check cannot provide.
func TestChecksumCatchesBitRot(t *testing.T) {
	v := buildView(t, graph.BarabasiAlbert(200, 2, 4))
	dir := t.TempDir()
	path := filepath.Join(dir, "view.sbcv")
	if err := v.WriteFile(path, nil); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, off := range []int{headerSize + 5, len(b) / 2, len(b) - 9} {
		bad := append([]byte(nil), b...)
		bad[off] ^= 0x01
		p := filepath.Join(dir, "rot.sbcv")
		if err := os.WriteFile(p, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenMapped(p); err == nil {
			t.Errorf("offset %d: bit rot accepted", off)
		} else if !strings.Contains(err.Error(), "checksum") {
			t.Errorf("offset %d: error %q does not mention checksum", off, err)
		}
	}
}

// smallViewImage is the file image of a small view with an id section, in
// an 8-byte-aligned buffer that decodeView can read.
func smallViewImage(t *testing.T) []byte {
	t.Helper()
	v := buildView(t, graph.BarabasiAlbert(24, 2, 5))
	ids := make([]int64, v.G.NumNodes())
	for i := range ids {
		ids[i] = int64(3*i + 1)
	}
	var buf bytes.Buffer
	if _, err := v.writeTo(&buf, ids); err != nil {
		t.Fatal(err)
	}
	backing := make([]uint64, (buf.Len()+7)/8)
	b := unsafe.Slice((*byte)(unsafe.Pointer(&backing[0])), buf.Len())
	copy(b, buf.Bytes())
	if _, _, err := decodeView(b); err != nil {
		t.Fatalf("intact image rejected: %v", err)
	}
	return b
}

// TestChecksumCatchesEveryBitFlip flips each bit of a small view file in
// turn. Every flip must be rejected; a flip past the header, in any
// section, the decomposition prelude and the trailer included, must be
// rejected by the checksum before any section is read.
func TestChecksumCatchesEveryBitFlip(t *testing.T) {
	b := smallViewImage(t)
	for bit := 0; bit < 8*len(b); bit++ {
		b[bit/8] ^= 1 << (bit % 8)
		_, _, err := decodeView(b)
		b[bit/8] ^= 1 << (bit % 8)
		switch {
		case err == nil:
			t.Fatalf("byte %d bit %d: flip accepted", bit/8, bit%8)
		case bit/8 >= headerSize && !strings.Contains(err.Error(), "checksum"):
			t.Fatalf("byte %d bit %d: error %q does not mention checksum", bit/8, bit%8, err)
		}
	}
}

// TestChecksumCatchesBursts flips seeded random bursts of 1 to 64 bits
// before the trailer. Both CRCs are reflected, so bit i of byte j is
// coefficient 8j+i of the message polynomial and a burst is a run of
// consecutive coefficients; the degree-64 product of the two coprime
// generators cannot divide one, so every burst must be rejected.
func TestChecksumCatchesBursts(t *testing.T) {
	b := smallViewImage(t)
	bodyBits := 8 * (len(b) - 8)
	rng := rand.New(rand.NewSource(25))
	flip := func(start int, pattern uint64, width int) {
		for k := 0; k < width; k++ {
			if pattern>>k&1 != 0 {
				b[(start+k)/8] ^= 1 << ((start + k) % 8)
			}
		}
	}
	for trial := 0; trial < 20000; trial++ {
		width := 1 + rng.Intn(64)
		// A burst of width w has its first and last bits set.
		pattern := rng.Uint64()>>(64-width) | 1 | 1<<(width-1)
		start := rng.Intn(bodyBits - width + 1)
		flip(start, pattern, width)
		_, _, err := decodeView(b)
		flip(start, pattern, width)
		if err == nil {
			t.Fatalf("trial %d: %d-bit burst %#x at bit %d accepted", trial, width, pattern, start)
		}
	}
}

// TestWriteToDigestMatchesViewChecksum: the trailer WriteTo streams out is
// the one-shot viewChecksum of the bytes it wrote, however the digest is
// fed, and viewChecksum is CRC-32C over CRC-32/IEEE as hash/crc32 computes
// them.
func TestWriteToDigestMatchesViewChecksum(t *testing.T) {
	v := buildView(t, graph.BarabasiAlbert(500, 3, 8))
	var buf bytes.Buffer
	if _, err := v.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	body, trailer := buf.Bytes()[:buf.Len()-8], buf.Bytes()[buf.Len()-8:]
	want := viewChecksum(body)
	if got := binary.NativeEndian.Uint64(trailer); got != want {
		t.Fatalf("WriteTo trailer %#x, viewChecksum of its bytes %#x", got, want)
	}
	if lib := uint64(crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))<<32 | uint64(crc32.ChecksumIEEE(body)); lib != want {
		t.Fatalf("viewChecksum %#x, hash/crc32 one-shot %#x", want, lib)
	}
	var d viewDigest
	rest := body
	for k := 1; len(rest) > 0; k = k*7 + 3 {
		piece := rest[:min(k, len(rest))]
		d.Write(piece)
		rest = rest[len(piece):]
	}
	if got := d.Sum64(); got != want {
		t.Fatalf("digest fed in uneven pieces %#x, one-shot %#x", got, want)
	}
}

// TestWriteFileAtomicPublish: WriteFile must replace an existing view
// in one rename — readers mapping the old file keep their pages, the
// directory never holds a half-written view under the target name, and no
// temp files leak.
func TestWriteFileAtomicPublish(t *testing.T) {
	v := buildView(t, graph.BarabasiAlbert(150, 2, 6))
	dir := t.TempDir()
	path := filepath.Join(dir, "view.sbcv")
	if err := v.WriteFile(path, nil); err != nil {
		t.Fatal(err)
	}
	m, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	oldN := m.View.G.NumNodes()

	// Overwrite with a different view while the old one is mapped.
	v2 := buildView(t, graph.BarabasiAlbert(300, 3, 7))
	if err := v2.WriteFile(path, nil); err != nil {
		t.Fatalf("overwrite publish: %v", err)
	}
	if got := m.View.G.NumNodes(); got != oldN {
		t.Fatalf("mapped view changed under reader: %d nodes, had %d", got, oldN)
	}
	m2, err := OpenMapped(path)
	if err != nil {
		t.Fatalf("reopening published view: %v", err)
	}
	defer m2.Close()
	if m2.View.G.NumNodes() != v2.G.NumNodes() {
		t.Fatalf("published view has %d nodes, want %d", m2.View.G.NumNodes(), v2.G.NumNodes())
	}

	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.Name() != "view.sbcv" {
			t.Fatalf("publish left residue %q in the directory", e.Name())
		}
	}

	if err := v.WriteFile(filepath.Join(dir, "no-such-dir", "x.sbcv"), nil); err == nil {
		t.Fatal("WriteFile into a missing directory succeeded")
	}
}

// TestOpenMappingsBalanced: the process-wide mapping counter must go +1 on
// open, -1 on first Close, and stay put on failed opens and double closes.
func TestOpenMappingsBalanced(t *testing.T) {
	v := buildView(t, graph.Path(20))
	path := filepath.Join(t.TempDir(), "view.sbcv")
	if err := v.WriteFile(path, nil); err != nil {
		t.Fatal(err)
	}
	base := OpenMappings()
	m, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := OpenMappings(); got != base+1 {
		t.Fatalf("OpenMappings = %d after open, want %d", got, base+1)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil { // idempotent, must not double-decrement
		t.Fatal(err)
	}
	if got := OpenMappings(); got != base {
		t.Fatalf("OpenMappings = %d after close, want %d", got, base)
	}

	if _, err := OpenMapped(filepath.Join(t.TempDir(), "missing.sbcv")); err == nil {
		t.Fatal("missing file accepted")
	}
	if got := OpenMappings(); got != base {
		t.Fatalf("OpenMappings = %d after failed open, want %d", got, base)
	}
}

// TestOpenMappedFaultPoint: the bicomp.openmapped fault point must surface
// as a clean open error and leak no mapping.
func TestOpenMappedFaultPoint(t *testing.T) {
	defer faultinject.Reset()
	v := buildView(t, graph.Path(10))
	path := filepath.Join(t.TempDir(), "view.sbcv")
	if err := v.WriteFile(path, nil); err != nil {
		t.Fatal(err)
	}
	base := OpenMappings()
	boom := errors.New("injected mmap failure")
	faultinject.Enable()
	faultinject.Set("bicomp.openmapped", faultinject.Fault{Err: boom})
	if _, err := OpenMapped(path); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want injected failure", err)
	}
	faultinject.Reset()
	if got := OpenMappings(); got != base {
		t.Fatalf("OpenMappings = %d after injected failure, want %d", got, base)
	}
	m, err := OpenMapped(path)
	if err != nil {
		t.Fatalf("open after reset: %v", err)
	}
	m.Close()
}
