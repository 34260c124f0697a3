package graph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

// ReadEdgeList parses a whitespace-separated edge list. Node ids may be
// arbitrary non-negative integers and are compacted to a dense [0, n) range
// preserving first-seen order; the mapping is returned so callers can
// translate back to original ids.
//
// The grammar, exactly: a line is split on Unicode whitespace (after a
// trailing "\r" is dropped); a line that is blank or whose first non-space
// character is '#' or '%' is skipped; otherwise its first two fields must
// parse as base-10 int64 values (an optional '+' or '-' sign, leading zeros
// allowed, no '_') and neither may be negative ("-0" is 0); further fields
// (weights, timestamps) are ignored. Lines are at most 1 MiB.
//
// The common line, two unsigned decimal ids amid ASCII whitespace, is
// parsed in place with no allocation; any other line (a sign, a non-ASCII
// byte, a malformed or out-of-range field) goes to parseLineSlow, the
// general form of the same grammar, which also words every error.
func ReadEdgeList(r io.Reader) (*Graph, []int64, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	remap := make(map[int64]Node)
	var original []int64
	intern := func(raw int64) Node {
		if id, ok := remap[raw]; ok {
			return id
		}
		id := Node(len(original))
		remap[raw] = id
		original = append(original, raw)
		return id
	}
	b := &Builder{}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		u, v, edge, ok := parseLineFast(sc.Bytes())
		if !ok {
			var err error
			if u, v, edge, err = parseLineSlow(sc.Text(), lineNo); err != nil {
				return nil, nil, err
			}
		}
		if edge {
			b.AddEdge(intern(u), intern(v))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("graph: reading edge list: %w", err)
	}
	b.SetNumNodes(len(original))
	return b.Build(), original, nil
}

// parseLineFast parses a line in place, reporting ok only when its verdict
// is certain: a skipped line (edge false), or two unsigned decimal ids that
// fit in int64 amid ASCII whitespace, the second followed by whitespace or
// the line's end. Anything else returns ok false for parseLineSlow.
func parseLineFast(line []byte) (u, v int64, edge, ok bool) {
	i := skipSpace(line, 0)
	if i == len(line) || line[i] == '#' || line[i] == '%' {
		return 0, 0, false, true
	}
	u, i, ok = parseID(line, i)
	if !ok || i == len(line) || !isSpace(line[i]) {
		return 0, 0, false, false
	}
	v, i, ok = parseID(line, skipSpace(line, i))
	if !ok || (i < len(line) && !isSpace(line[i])) {
		return 0, 0, false, false
	}
	return u, v, true, true
}

// parseID reads the run of decimal digits at line[i:], returning its value
// and the index after it; ok is false for an empty run or one above
// math.MaxInt64.
func parseID(line []byte, i int) (x int64, end int, ok bool) {
	start := i
	for ; i < len(line); i++ {
		d := int64(line[i]) - '0'
		if d < 0 || d > 9 {
			break
		}
		if x > (math.MaxInt64-d)/10 {
			return 0, i, false
		}
		x = x*10 + d
	}
	return x, i, i > start
}

// isSpace reports the ASCII bytes unicode.IsSpace (and so strings.Fields)
// treats as whitespace.
func isSpace(c byte) bool {
	return c == ' ' || (c >= '\t' && c <= '\r')
}

func skipSpace(line []byte, i int) int {
	for i < len(line) && isSpace(line[i]) {
		i++
	}
	return i
}

// parseLineSlow is the reader's grammar in its general form: Unicode
// whitespace, signed ids, and the error for a line that breaks it.
func parseLineSlow(text string, lineNo int) (u, v int64, edge bool, err error) {
	line := strings.TrimSpace(text)
	if line == "" || line[0] == '#' || line[0] == '%' {
		return 0, 0, false, nil
	}
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return 0, 0, false, fmt.Errorf("graph: line %d: want at least 2 fields, got %q", lineNo, line)
	}
	if u, err = strconv.ParseInt(fields[0], 10, 64); err != nil {
		return 0, 0, false, fmt.Errorf("graph: line %d: bad source id: %v", lineNo, err)
	}
	if v, err = strconv.ParseInt(fields[1], 10, 64); err != nil {
		return 0, 0, false, fmt.Errorf("graph: line %d: bad target id: %v", lineNo, err)
	}
	if u < 0 || v < 0 {
		return 0, 0, false, fmt.Errorf("graph: line %d: negative node id", lineNo)
	}
	return u, v, true, nil
}

// LoadEdgeList reads an edge-list file from disk. See ReadEdgeList.
func LoadEdgeList(path string) (*Graph, []int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("graph: %w", err)
	}
	defer f.Close()
	return ReadEdgeList(f)
}

// WriteEdgeList writes the graph as "u v" lines (each undirected edge once,
// with u < v), preceded by a comment header with node and edge counts.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# nodes %d edges %d\n", g.NumNodes(), g.NumEdges()); err != nil {
		return err
	}
	for u := Node(0); int(u) < g.NumNodes(); u++ {
		for _, v := range g.Neighbors(u) {
			if u < v {
				if _, err := fmt.Fprintf(bw, "%d %d\n", u, v); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

// SaveEdgeList writes the graph to a file. See WriteEdgeList.
func SaveEdgeList(path string, g *Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("graph: %w", err)
	}
	if err := WriteEdgeList(f, g); err != nil {
		f.Close()
		return fmt.Errorf("graph: writing %s: %w", path, err)
	}
	return f.Close()
}
