package graph

// Plain-text serialization: a header line "n m" followed by one "u v"
// line per edge. The format is deliberately trivial so graphs can be
// passed between the CLI tools and inspected by hand.

import (
	"bufio"
	"fmt"
	"io"
)

// Write serializes g in the text edge-list format.
func (g *Graph) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%d %d\n", g.N(), g.M()); err != nil {
		return err
	}
	var werr error
	g.ForEachEdge(func(u, v int) {
		if werr == nil {
			_, werr = fmt.Fprintf(bw, "%d %d\n", u, v)
		}
	})
	if werr != nil {
		return werr
	}
	return bw.Flush()
}

// MaxVertices caps the vertex count a graph file's header may declare,
// so a corrupt header fails with an error instead of exhausting memory
// in Build, and every id fits the int32 CSR. It is also the cap of
// every default-tier family build (gen.MaxVertices).
const MaxVertices = 1 << 24

// Read parses a graph in the text edge-list format.
func Read(r io.Reader) (*Graph, error) {
	br := bufio.NewReader(r)
	var n, m int
	if _, err := fmt.Fscan(br, &n, &m); err != nil {
		return nil, fmt.Errorf("graph: reading header: %w", err)
	}
	if n < 0 || m < 0 {
		return nil, fmt.Errorf("graph: invalid header n=%d m=%d", n, m)
	}
	if n > MaxVertices {
		return nil, fmt.Errorf("graph: header asks for %d vertices, above the cap (graph.MaxVertices = %d)", n, MaxVertices)
	}
	b := NewBuilder(n)
	for i := 0; i < m; i++ {
		var u, v int
		if _, err := fmt.Fscan(br, &u, &v); err != nil {
			return nil, fmt.Errorf("graph: reading edge %d: %w", i, err)
		}
		if u < 0 || u >= n || v < 0 || v >= n {
			return nil, fmt.Errorf("graph: edge %d (%d,%d) out of range", i, u, v)
		}
		b.AddEdge(u, v)
	}
	return b.Build(), nil
}
