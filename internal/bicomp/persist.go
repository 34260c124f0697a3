// Binary serialization of the BlockCSR view (DESIGN.md section 7).
//
// The on-disk format is a fixed 56-byte header followed by the view's
// arrays in a fixed order, every section 8-byte aligned, values in the
// writing machine's native byte order:
//
//	[0:8)   magic "SaPHyBCV"
//	[8:12)  format version (uint32, currently 4)
//	[12:16) byte-order probe 0x01020304 (uint32, native order)
//	[16:24) n     — number of nodes (int64)
//	[24:32) m     — number of undirected edges (int64)
//	[32:40) runs  — number of neighbor runs (int64)
//	[40:48) flags (int64; bit 0: original-id map section present;
//	        bits 2, 3: checksum and decomposition sections, always set;
//	        bit 1, the out-reach section of versions 1 and 2, is unused)
//	[48:56) total file size in bytes (int64; truncation check)
//	offsets   int64[n+1]     graph CSR offsets
//	adj       int32[2m]      graph CSR adjacency (sorted per node)
//	Nbr       int32[2m]      grouped adjacency
//	RNbr      int32[2m]      per-edge neighbor r-values
//	NbrRun    int64[2m]      reciprocal run index per edge
//	Mate      int64[2m]      reciprocal position per edge
//	RunOff    int64[n+1]     runs-per-node index
//	RunBlock  int32[runs]    block id per run (padded to 8 bytes)
//	RunR      int32[runs]    owner r-value per run (padded to 8 bytes)
//	RunStart  int64[runs+1]  edge range per run
//	RunDegSum int64[runs]    neighbor degree mass per run
//	decomp    numBlocks int64; numComps int64;
//	          CompLabel  int32[n]        component label per node (padded)
//	          CompSize   int64[numComps] nodes per component
//	ids       int64[n]       original node ids (flags bit 0 only)
//	checksum  uint64         CRC-32C (high 32 bits) and CRC-32/IEEE (low 32
//	                         bits) of all preceding bytes
//
// The trailer pairs two 32-bit CRCs over the same bytes because Go's
// hash/crc32 computes both in hardware (SSE4.2 and PCLMUL on amd64, the
// CRC32 instructions on arm64): each reads about ten times as fast as the
// table-driven CRC-64 that format version 1 used, and the pair checks no
// less. The two generator polynomials are coprime, so an error slips past
// both only if their degree-64 product divides it: every burst of up to 64
// bits is caught, and so is every odd number of flipped bits, because the
// Castagnoli polynomial has the factor x+1.
//
// Version 3 dropped the out-reach section of versions 1 and 2, a second,
// block-major copy of RunR. Version 4 dropped the decomposition section's
// per-directed-edge block map, a second copy of the run index: an edge's
// block is its run's block. Files of an older version are refused with the
// version error; rebuild them with saphyra -save-view. Every section but
// ids is required: OpenMapped rejects a file whose flags lack the checksum
// or decomposition bit, and asks for the same rebuild.
//
// The optional ids section preserves the dense-id -> original-id map of
// graph.LoadEdgeList, so a view built from a compacted edge list still
// reports results in the file's id space. Files whose ids are already
// dense omit it.
//
// The decomposition section carries the parts of the biconnected
// decomposition that the view's own arrays cannot reproduce: the block
// count, the component count, and the connected-component labeling
// (CompLabel, CompSize). The run index is the rest: RunOff and RunBlock are
// the decomposition's node-major membership CSR and RunR its out-reach r
// column, so every r an estimator reads comes from RunR. OpenMapped
// rebuilds View.D and View.O from the section and the run arrays
// (openTables), in O(n + m + runs) and without the Decompose DFS or the
// NewOutReach block-cut-tree DP. On the way it checks the runs' tiling of
// every node's CSR segment, the range of every index the engines follow
// from an edge (adj, Nbr, NbrRun, Mate), RNbr against RunR, the component
// labeling, and RunR against Claim 9. A file that fails a check fails the
// open; nothing is recomputed from the graph.
//
// Native byte order makes the read path a straight reinterpretation of the
// mapped pages — the probe field turns a cross-endian file into a clean
// error instead of garbage. The embedded graph CSR makes the file
// self-contained: OpenMapped rebuilds a *graph.Graph aliasing the mapped
// offsets/adj sections, so the exact-phase, k-path, and closeness engines
// run directly off the file with no per-process copy of the adjacency.
package bicomp

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"unsafe"

	"saphyra/internal/faultinject"
	"saphyra/internal/graph"
)

const (
	persistMagic   = "SaPHyBCV"
	persistVersion = 4
	orderProbe     = uint32(0x01020304)
	headerSize     = 56
	// flagIDs marks the presence of the optional original-id section.
	flagIDs = int64(1)
	// flagChecksum marks the checksum trailer: the last 8 bytes of the file
	// are viewChecksum of every byte before them. OpenMapped verifies it
	// before decoding any section, so a torn or bit-rotted file is a clean
	// open error instead of silently wrong estimates. Required.
	flagChecksum = int64(4)
	// flagDecomp marks the decomposition section (block and component
	// counts, component labeling). Required.
	flagDecomp = int64(8)
	// requiredFlags is the set every readable file carries; each bit has
	// been written by every WriteFile since format version 1 gained it.
	requiredFlags = flagChecksum | flagDecomp
	// knownFlags is the union of every flag bit this build understands.
	knownFlags = flagIDs | requiredFlags
	// maxDim rejects absurd header values before any size arithmetic, so a
	// corrupted header cannot overflow the expected-size computation.
	maxDim = int64(1) << 40
)

// castagnoli is the CRC-32C table; crc32.Update runs it in hardware where
// the CPU has CRC instructions (SSE4.2 on amd64, CRC32 on arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// viewDigest is the streaming form of viewChecksum: the CRC-32C and the
// CRC-32/IEEE of every byte written so far.
type viewDigest struct{ c, ieee uint32 }

func (d *viewDigest) Write(b []byte) {
	d.c = crc32.Update(d.c, castagnoli, b)
	d.ieee = crc32.Update(d.ieee, crc32.IEEETable, b)
}

// Sum64 is the trailer value: CRC-32C in the high 32 bits, CRC-32/IEEE in
// the low 32 bits.
func (d *viewDigest) Sum64() uint64 { return uint64(d.c)<<32 | uint64(d.ieee) }

// viewChecksum is the checksum trailer of a file whose bytes before the
// trailer are body.
func viewChecksum(body []byte) uint64 {
	var d viewDigest
	d.Write(body)
	return d.Sum64()
}

// persistSize returns the total file size for the given dimensions; comps
// is the connected-component count of the decomposition section.
func persistSize(n, m, runs, comps int64, hasIDs bool) int64 {
	size := decompOffset(n, m, runs) + decompSectionSize(n, comps)
	if hasIDs {
		size += n * 8 // ids
	}
	return size + 8 // checksum trailer
}

// decompOffset is the byte offset of the decomposition section's prelude
// (equivalently: the size of everything through RunDegSum).
// decodeView needs it before the total-size check, because the section's
// length depends on the component count stored in its own prelude.
func decompOffset(n, m, runs int64) int64 {
	size := int64(headerSize)
	size += (n + 1) * 8    // offsets
	size += 2 * m * 4      // adj (2m int32 = 8m bytes, always 8-aligned)
	size += 2 * m * 4      // Nbr
	size += 2 * m * 4      // RNbr
	size += 2 * m * 8      // NbrRun
	size += 2 * m * 8      // Mate
	size += (n + 1) * 8    // RunOff
	size += pad8(runs * 4) // RunBlock
	size += pad8(runs * 4) // RunR
	size += (runs + 1) * 8 // RunStart
	size += runs * 8       // RunDegSum
	return size
}

// decompSectionSize is the decomposition section's byte length: the 16-byte
// prelude (numBlocks, numComps), CompLabel (n int32, padded), and CompSize
// (comps int64).
func decompSectionSize(n, comps int64) int64 {
	return 16 + pad8(n*4) + comps*8
}

func pad8(b int64) int64 { return (b + 7) &^ 7 }

func int32Bytes(s []int32) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*4)
}

func int64Bytes(s []int64) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*8)
}

// WriteTo serializes the view in the versioned binary format above (with no
// original-id section), implementing io.WriterTo. The written bytes are
// independent of how the view was obtained: a round-trip through OpenMapped
// yields arrays bitwise-identical to the in-memory build.
func (v *BlockCSR) WriteTo(w io.Writer) (int64, error) {
	return v.writeTo(w, nil)
}

func (v *BlockCSR) writeTo(w io.Writer, ids []int64) (int64, error) {
	n := int64(v.G.NumNodes())
	m := v.G.NumEdges()
	runs := int64(len(v.RunBlock))
	offsets, adj := v.G.CSR()
	flags := requiredFlags
	if ids != nil {
		if int64(len(ids)) != n {
			return 0, fmt.Errorf("bicomp: id map has %d entries for %d nodes", len(ids), n)
		}
		flags |= flagIDs
	}
	d := v.D
	comps := int64(len(d.CompSize))

	bw := bufio.NewWriterSize(w, 1<<20)
	var digest viewDigest
	var written int64
	// put writes a section to the file and folds it into the checksum; the
	// trailer itself is written below with bw.Write directly, so the digest
	// covers exactly the bytes preceding it.
	put := func(b []byte) error {
		k, err := bw.Write(b)
		written += int64(k)
		digest.Write(b[:k])
		return err
	}

	var hdr [headerSize]byte
	copy(hdr[0:8], persistMagic)
	binary.NativeEndian.PutUint32(hdr[8:12], persistVersion)
	binary.NativeEndian.PutUint32(hdr[12:16], orderProbe)
	binary.NativeEndian.PutUint64(hdr[16:24], uint64(n))
	binary.NativeEndian.PutUint64(hdr[24:32], uint64(m))
	binary.NativeEndian.PutUint64(hdr[32:40], uint64(runs))
	binary.NativeEndian.PutUint64(hdr[40:48], uint64(flags))
	binary.NativeEndian.PutUint64(hdr[48:56], uint64(persistSize(n, m, runs, comps, ids != nil)))
	if err := put(hdr[:]); err != nil {
		return written, err
	}

	var padding [8]byte
	putPadded32 := func(s []int32) error {
		if err := put(int32Bytes(s)); err != nil {
			return err
		}
		if p := pad8(int64(len(s))*4) - int64(len(s))*4; p > 0 {
			return put(padding[:p])
		}
		return nil
	}
	for _, sec := range [][]int64{offsets} {
		if err := put(int64Bytes(sec)); err != nil {
			return written, err
		}
	}
	for _, sec := range [][]int32{adj, v.Nbr, v.RNbr} {
		if err := put(int32Bytes(sec)); err != nil {
			return written, err
		}
	}
	for _, sec := range [][]int64{v.NbrRun, v.Mate, v.RunOff} {
		if err := put(int64Bytes(sec)); err != nil {
			return written, err
		}
	}
	if err := putPadded32(v.RunBlock); err != nil {
		return written, err
	}
	if err := putPadded32(v.RunR); err != nil {
		return written, err
	}
	for _, sec := range [][]int64{v.RunStart, v.RunDegSum} {
		if err := put(int64Bytes(sec)); err != nil {
			return written, err
		}
	}
	var prelude [16]byte
	binary.NativeEndian.PutUint64(prelude[0:8], uint64(d.NumBlocks))
	binary.NativeEndian.PutUint64(prelude[8:16], uint64(comps))
	if err := put(prelude[:]); err != nil {
		return written, err
	}
	if err := putPadded32(d.CompLabel); err != nil {
		return written, err
	}
	if err := put(int64Bytes(d.CompSize)); err != nil {
		return written, err
	}
	if ids != nil {
		if err := put(int64Bytes(ids)); err != nil {
			return written, err
		}
	}
	var trailer [8]byte
	binary.NativeEndian.PutUint64(trailer[:], digest.Sum64())
	k, err := bw.Write(trailer[:])
	written += int64(k)
	if err != nil {
		return written, err
	}
	return written, bw.Flush()
}

// WriteFile serializes the view to path (the build-once half of the
// build-once/serve-many flow; OpenMapped is the other half). ids, when
// non-nil, is the dense-id -> original-id map to embed (length n); pass nil
// when node ids are already the external ids.
//
// Publication is crash-safe: the bytes land in a temp file in path's
// directory, are fsynced, and are renamed over path, with the directory
// fsynced after the rename. A crash at any point leaves either the old file
// or the new one at path — never a torn view. Reload flows can therefore
// point a live saphyrad at path while a rebuild overwrites it.
func (v *BlockCSR) WriteFile(path string, ids []int64) (err error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	if _, err = v.writeTo(f, ids); err != nil {
		return fmt.Errorf("bicomp: writing view to %s: %w", path, err)
	}
	if err = f.Sync(); err != nil {
		return fmt.Errorf("bicomp: syncing view %s: %w", path, err)
	}
	if err = f.Close(); err != nil {
		return fmt.Errorf("bicomp: closing view %s: %w", path, err)
	}
	if err = os.Rename(tmp, path); err != nil {
		return fmt.Errorf("bicomp: publishing view %s: %w", path, err)
	}
	// Fsync the directory so the rename itself is durable. Failure here is
	// reported but the published file is already visible and intact.
	if d, derr := os.Open(dir); derr == nil {
		serr := d.Sync()
		d.Close()
		if serr != nil {
			return fmt.Errorf("bicomp: syncing directory of %s: %w", path, serr)
		}
	}
	return nil
}

// sectionReader slices typed sections out of an 8-aligned byte buffer
// without copying.
type sectionReader struct {
	data []byte
	off  int64
}

func (r *sectionReader) i64(count int64) []int64 {
	s := unsafe.Slice((*int64)(unsafe.Pointer(&r.data[r.off])), count)
	r.off += count * 8
	return s
}

func (r *sectionReader) i32(count int64, padded bool) []int32 {
	s := unsafe.Slice((*int32)(unsafe.Pointer(&r.data[r.off])), count)
	r.off += count * 4
	if padded {
		r.off = pad8(r.off)
	}
	return s
}

// decodeView reinterprets a serialized view. data must be 8-byte aligned
// (mmap regions and []uint64-backed buffers both are) and must stay alive —
// and, for mapped regions, mapped — for the lifetime of the returned view.
// ids is nil when the file carries no original-id section. The returned
// view carries D and O rebuilt from the file's sections; any section that
// fails its check is an error.
func decodeView(data []byte) (view *BlockCSR, ids []int64, err error) {
	if len(data) < headerSize {
		return nil, nil, fmt.Errorf("bicomp: view file too short (%d bytes)", len(data))
	}
	if string(data[0:8]) != persistMagic {
		return nil, nil, fmt.Errorf("bicomp: bad magic %q, want %q", data[0:8], persistMagic)
	}
	if v := binary.NativeEndian.Uint32(data[8:12]); v != persistVersion {
		return nil, nil, fmt.Errorf("bicomp: view format version %d, this build reads %d — rebuild it with saphyra -save-view", v, persistVersion)
	}
	if p := binary.NativeEndian.Uint32(data[12:16]); p != orderProbe {
		return nil, nil, fmt.Errorf("bicomp: byte-order probe %#x, want %#x (file written on a machine with different endianness)", p, orderProbe)
	}
	n := int64(binary.NativeEndian.Uint64(data[16:24]))
	m := int64(binary.NativeEndian.Uint64(data[24:32]))
	runs := int64(binary.NativeEndian.Uint64(data[32:40]))
	flags := int64(binary.NativeEndian.Uint64(data[40:48]))
	total := int64(binary.NativeEndian.Uint64(data[48:56]))
	if n < 0 || m < 0 || runs < 0 || n > maxDim || m > maxDim || runs > maxDim {
		return nil, nil, fmt.Errorf("bicomp: implausible view dimensions n=%d m=%d runs=%d", n, m, runs)
	}
	if unknown := flags &^ knownFlags; unknown != 0 {
		return nil, nil, fmt.Errorf("bicomp: unknown view flags %#x (file written by a newer build?)", unknown)
	}
	if missing := requiredFlags &^ flags; missing != 0 {
		return nil, nil, fmt.Errorf("bicomp: view file lacks required section(s) %s — written by an older build; rebuild it with saphyra -save-view",
			missingSections(missing))
	}
	// Verify the trailer before reading any section, the decomposition
	// prelude included: a flipped bit anywhere past the header is then a
	// checksum error, whatever field it landed in. The header's total size
	// must match the buffer first, so a truncated file reads as truncated.
	if total != int64(len(data)) {
		return nil, nil, fmt.Errorf("bicomp: view file size %d, header says %d — truncated or corrupt", len(data), total)
	}
	body := data[:len(data)-8]
	if got, want := viewChecksum(body), binary.NativeEndian.Uint64(data[len(data)-8:]); got != want {
		return nil, nil, fmt.Errorf("bicomp: view checksum %#x, trailer says %#x — file corrupt", got, want)
	}
	hasIDs := flags&flagIDs != 0
	// The decomposition section's length depends on the component count in
	// its own prelude, so that prelude must be read (bounds-checked against
	// the raw buffer) before the expected-size check can run.
	off := decompOffset(n, m, runs)
	if off+16 > int64(len(data)) {
		return nil, nil, fmt.Errorf("bicomp: view file size %d, decomposition prelude at %d — truncated or corrupt", len(data), off)
	}
	numBlocks := int64(binary.NativeEndian.Uint64(data[off : off+8]))
	numComps := int64(binary.NativeEndian.Uint64(data[off+8 : off+16]))
	if numBlocks < 0 || numBlocks > runs || numComps < 0 || numComps > n {
		return nil, nil, fmt.Errorf("bicomp: implausible decomposition section: %d blocks for %d runs, %d components for %d nodes",
			numBlocks, runs, numComps, n)
	}
	if want := persistSize(n, m, runs, numComps, hasIDs); total != want {
		return nil, nil, fmt.Errorf("bicomp: view file size %d, want %d — truncated or corrupt", total, want)
	}

	r := &sectionReader{data: data, off: headerSize}
	offsets := r.i64(n + 1)
	adj := r.i32(2*m, false)
	view = &BlockCSR{
		Nbr:       r.i32(2*m, false),
		RNbr:      r.i32(2*m, false),
		NbrRun:    r.i64(2 * m),
		Mate:      r.i64(2 * m),
		RunOff:    r.i64(n + 1),
		RunBlock:  r.i32(runs, true),
		RunR:      r.i32(runs, true),
		RunStart:  r.i64(runs + 1),
		RunDegSum: r.i64(runs),
	}
	r.off += 16 // decomposition prelude: already decoded above
	compLabel := r.i32(n, true)
	compSize := r.i64(numComps)
	if hasIDs {
		ids = r.i64(n)
	}
	g, err := graph.FromCSR(offsets, adj)
	if err != nil {
		return nil, nil, fmt.Errorf("bicomp: embedded graph: %w", err)
	}
	view.G = g
	if err := view.openTables(numBlocks, compLabel, compSize); err != nil {
		return nil, nil, err
	}
	return view, ids, nil
}

// missingSections names the required sections whose flag bits are absent.
func missingSections(missing int64) string {
	var names []string
	for _, f := range []struct {
		bit  int64
		name string
	}{{flagChecksum, "checksum"}, {flagDecomp, "decomposition"}} {
		if missing&f.bit != 0 {
			names = append(names, f.name)
		}
	}
	return strings.Join(names, ", ")
}

// Mapped is a BlockCSR view whose arrays alias a serialized file — mmapped
// where the platform supports it, a page-aligned heap copy otherwise. The
// View (including its embedded graph) is valid until Close; Close unmaps
// the region, after which any access through the view faults. The mapping
// is read-only and shared: concurrent processes serving the same file share
// one copy of the physical pages.
//
// View.D and View.O are complete: OpenMapped rebuilds them from the file's
// decomposition section and run arrays before returning. Their node-major
// arrays (NodeOff, NodeBlock, NodeR) are the mapped RunOff, RunBlock and
// RunR, and CompLabel and CompSize alias the section; only the block-major
// CSR, its r column and the per-block sums are heap.
type Mapped struct {
	View *BlockCSR
	// IDs is the embedded dense-id -> original-id map, or nil when the file
	// was written without one (node ids are already external).
	IDs    []int64
	data   []byte
	munmap func() error
}

// openMappings counts live Mapped views process-wide: +1 per successful
// OpenMapped, -1 per first Close. Reload-failure and chaos tests assert it
// returns to its baseline — a leak here means mapped pages (and on some
// platforms, file descriptors' address space) pin forever.
var openMappings atomic.Int64

// OpenMappings reports the number of Mapped views currently open and not
// yet closed in this process.
func OpenMappings() int64 { return openMappings.Load() }

// OpenMapped opens a view file written by WriteTo for zero-copy serving. It
// returns either a complete view — D and O rebuilt and checked against the
// run arrays — or an error, with the file unmapped.
func OpenMapped(path string) (*Mapped, error) {
	if err := faultinject.Fire("bicomp.openmapped"); err != nil {
		return nil, fmt.Errorf("bicomp: mapping %s: %w", path, err)
	}
	data, munmap, err := mapFile(path)
	if err != nil {
		return nil, fmt.Errorf("bicomp: mapping %s: %w", path, err)
	}
	view, ids, err := decodeView(data)
	if err != nil {
		if munmap != nil {
			munmap()
		}
		return nil, fmt.Errorf("bicomp: %s: %w", path, err)
	}
	openMappings.Add(1)
	return &Mapped{View: view, IDs: ids, data: data, munmap: munmap}, nil
}

// Close releases the mapping. The view and every slice derived from it must
// not be used afterwards. Close is idempotent; only the first call
// decrements the open-mappings count.
func (m *Mapped) Close() error {
	if m.data != nil {
		openMappings.Add(-1)
	}
	m.View = nil
	m.IDs = nil
	m.data = nil
	if m.munmap != nil {
		f := m.munmap
		m.munmap = nil
		return f()
	}
	return nil
}
