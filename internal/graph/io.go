package graph

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// EdgeList is the result of parsing an external edge-list file. External
// node identifiers (which may be sparse, e.g. SNAP datasets) are remapped
// to dense internal identifiers.
type EdgeList struct {
	// Graph is the parsed graph over dense identifiers.
	Graph *Graph
	// Labels maps dense node identifiers back to the external identifiers
	// found in the input.
	Labels []int64
	// Dropped counts well-formed edge lines ignored because an endpoint
	// was negative or the line is a self-loop, plus duplicate lines the
	// Builder collapsed. Malformed lines are still hard errors; negative
	// identifiers and self-loops are data quirks real exports contain, so
	// they are skipped and accounted for rather than failing the whole
	// file.
	Dropped int64
}

// ReadEdgeList parses a whitespace-separated directed edge list in the SNAP
// style: one "source target" pair per line, with '#' starting a comment.
// External identifiers may be arbitrary non-negative integers; they are
// remapped to dense identifiers in first-seen order. Lines with negative
// identifiers and self-loops are dropped and counted in EdgeList.Dropped;
// an identifier seen only on such lines becomes no node.
func ReadEdgeList(r io.Reader) (*EdgeList, error) {
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)

	idOf := make(map[int64]int32)
	var labels []int64
	intern := func(ext int64) int32 {
		if id, ok := idOf[ext]; ok {
			return id
		}
		id := int32(len(labels))
		idOf[ext] = id
		labels = append(labels, ext)
		return id
	}

	b := NewBuilder(0)
	dropped := int64(0)
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		line := scanner.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: line %d: want 2 fields, got %d", lineNo, len(fields))
		}
		u, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad source %q: %w", lineNo, fields[0], err)
		}
		v, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad target %q: %w", lineNo, fields[1], err)
		}
		if u < 0 || v < 0 || u == v {
			// Negative ids and self-loops are refused before interning, so
			// an id seen only on refused lines takes no node or label.
			dropped++
			continue
		}
		b.AddEdge(intern(u), intern(v))
	}
	if err := scanner.Err(); err != nil {
		return nil, fmt.Errorf("graph: read edge list: %w", err)
	}
	g, err := b.Build()
	if err != nil {
		return nil, err
	}
	return &EdgeList{Graph: g, Labels: labels, Dropped: dropped + b.Dropped()}, nil
}

// ReadEdgeListFile is ReadEdgeList over the named file.
func ReadEdgeListFile(path string) (*EdgeList, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadEdgeList(f)
}

// WriteEdgeList writes g as a directed edge list with dense identifiers,
// one "u v" pair per line, preceded by a summary comment.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# directed edge list: %d nodes, %d edges\n", g.NumNodes(), g.NumEdges()); err != nil {
		return err
	}
	for u := int32(0); u < g.NumNodes(); u++ {
		for _, v := range g.Out(u) {
			if _, err := fmt.Fprintf(bw, "%d %d\n", u, v); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// WriteEdgeListFile writes g to the named file, creating or truncating it.
func WriteEdgeListFile(path string, g *Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteEdgeList(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadCommunities parses a community assignment file: each line holds a node
// identifier and a community identifier. Lines are "node community"; '#'
// starts a comment. The labels slice translates external node identifiers
// (as produced by ReadEdgeList) to dense ones; pass nil if the file already
// uses dense identifiers.
func ReadCommunities(r io.Reader, numNodes int32, labels []int64) ([]int32, error) {
	toDense := make(map[int64]int32, len(labels))
	for dense, ext := range labels {
		toDense[ext] = int32(dense)
	}
	assign := make([]int32, numNodes)
	for i := range assign {
		assign[i] = -1
	}
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		line := scanner.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: communities line %d: want 2 fields, got %d", lineNo, len(fields))
		}
		ext, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("graph: communities line %d: bad node %q: %w", lineNo, fields[0], err)
		}
		comm, err := strconv.ParseInt(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: communities line %d: bad community %q: %w", lineNo, fields[1], err)
		}
		node := int32(ext)
		if labels != nil {
			dense, ok := toDense[ext]
			if !ok {
				return nil, fmt.Errorf("graph: communities line %d: unknown node %d", lineNo, ext)
			}
			node = dense
		}
		if node < 0 || node >= numNodes {
			return nil, fmt.Errorf("graph: communities line %d: node %d out of range", lineNo, node)
		}
		assign[node] = int32(comm)
	}
	if err := scanner.Err(); err != nil {
		return nil, fmt.Errorf("graph: read communities: %w", err)
	}
	return assign, nil
}

// WriteCommunities writes a dense "node community" assignment file.
func WriteCommunities(w io.Writer, assign []int32) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# node community (%d nodes)\n", len(assign)); err != nil {
		return err
	}
	for node, comm := range assign {
		if _, err := fmt.Fprintf(bw, "%d %d\n", node, comm); err != nil {
			return err
		}
	}
	return bw.Flush()
}
