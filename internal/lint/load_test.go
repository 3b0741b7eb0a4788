package lint_test

import (
	"path/filepath"
	"testing"

	"compsynth/internal/lint"
)

// TestLoaderEdgeCases is the table test for the loader's corner cases on
// the loadedge fixture: generic functions and their instantiations, method
// values, embedded interfaces, and per-file build constraints inside a
// testdata package.
func TestLoaderEdgeCases(t *testing.T) {
	root := repoRoot(t)
	l, err := lint.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	p, err := l.Load(filepath.Join(root, "internal/lint/testdata/src/loadedge"))
	if err != nil {
		t.Fatalf("loadedge must type-check: %v", err)
	}

	fileNames := map[string]bool{}
	for _, f := range p.Files {
		fileNames[filepath.Base(p.Fset.Position(f.Pos()).Filename)] = true
	}

	cases := []struct {
		name  string
		check func(t *testing.T)
	}{
		{"build-tag ignore excludes the file", func(t *testing.T) {
			if fileNames["ignored.go"] {
				t.Error("ignored.go (//go:build ignore) was loaded; its deliberate type error should have failed the load")
			}
		}},
		{"always-true build tag keeps the file", func(t *testing.T) {
			if !fileNames["tagged.go"] {
				t.Error("tagged.go (//go:build go1.1) was excluded")
			}
		}},
		{"generic function declares and instantiates", func(t *testing.T) {
			obj := p.Pkg.Scope().Lookup("Transform")
			if obj == nil {
				t.Fatal("Transform not in package scope")
			}
			instances := 0
			for id, inst := range p.Info.Instances {
				if id.Name == "Transform" && inst.Type != nil {
					instances++
				}
			}
			if instances < 2 {
				t.Errorf("expected both Transform instantiations recorded, got %d", instances)
			}
		}},
		{"method value resolves", func(t *testing.T) {
			obj := p.Pkg.Scope().Lookup("nameOf")
			if obj == nil {
				t.Fatal("nameOf not in package scope")
			}
			if obj.Type().String() != "func() string" {
				t.Errorf("nameOf type = %s, want func() string", obj.Type())
			}
		}},
		{"embedded interface method set", func(t *testing.T) {
			obj := p.Pkg.Scope().Lookup("Outer")
			if obj == nil {
				t.Fatal("Outer not in package scope")
			}
			// Outer embeds Inner: Name must be promoted into its method set.
			iface, ok := obj.Type().Underlying().(interface{ NumMethods() int })
			if !ok {
				t.Fatalf("Outer is not an interface: %T", obj.Type().Underlying())
			}
			if iface.NumMethods() != 2 {
				t.Errorf("Outer has %d methods, want 2 (Name promoted from Inner)", iface.NumMethods())
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, tc.check)
	}

	// The fixture must stay violation-free: its job is loading, not linting.
	diags, err := lint.Analyze([]string{filepath.Join(root, "internal/lint/testdata/src/loadedge")})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) > 0 {
		t.Errorf("loadedge should be clean:\n%s", lint.FormatText(diags))
	}
}
