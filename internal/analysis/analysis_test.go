package analysis_test

import (
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"lcrb/internal/analysis"
)

const src = `package p

func f() {
	a() //lint:ignore mapiter same-line reason
	//lint:ignore rngsource,errfmt line-above reason
	b()
	//lint:ignore all blanket reason
	c()
	//lint:ignore ctxflow
	d()
	e()
}
`

func TestSuppressed(t *testing.T) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	pos := func(marker string) token.Pos {
		off := strings.Index(src, marker)
		if off < 0 {
			t.Fatalf("marker %q not in src", marker)
		}
		return fset.File(file.FileStart).Pos(off)
	}

	cases := []struct {
		marker   string
		analyzer string
		want     bool
	}{
		{"a()", "mapiter", true},    // directive on the flagged line
		{"a()", "errfmt", false},    // wrong analyzer name
		{"b()", "rngsource", true},  // comma list, line above
		{"b()", "errfmt", true},     // second name in the list
		{"b()", "mapiter", false},   // not in the list
		{"c()", "ctxflow", true},    // "all" silences every analyzer
		{"d()", "ctxflow", false},   // reasonless directive is not honored
		{"e()", "rngsource", false}, // no directive in range
	}
	for _, tc := range cases {
		if got := analysis.Suppressed(fset, file, tc.analyzer, pos(tc.marker)); got != tc.want {
			t.Errorf("Suppressed(%s at %s) = %v, want %v", tc.analyzer, tc.marker, got, tc.want)
		}
	}
}
