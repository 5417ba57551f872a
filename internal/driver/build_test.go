package driver

import (
	"path/filepath"
	"strings"
	"testing"

	"selspec/internal/opt"
	"selspec/internal/profdb"
	"selspec/internal/profile"
	"selspec/internal/programs"
	"selspec/internal/specialize"
)

func describe(p *Pipeline, c *opt.Compiled, st *specialize.Stats) string {
	return (&specialize.Result{Specializations: c.Opts.Specializations, Stats: *st}).Describe(p.Prog.H)
}

// A saved profile stands in for the training run exactly: Build from a
// profile written to disk and read back yields the same directives as
// Build with the training run that recorded it.
func TestBuildWithReloadedProfileMatchesTraining(t *testing.T) {
	for _, b := range programs.All() {
		p, err := LoadNamed(b.Name, b.Source)
		if err != nil {
			t.Fatal(err)
		}
		cg := profile.NewCallGraph(p.Prog)
		trained, st, err := p.Build(BuildOptions{
			Opt:   opt.Options{Config: opt.Selective},
			Train: RunOptions{Overrides: b.Train, Profile: cg},
		})
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		data, err := cg.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "prof.json")
		if err := profdb.WriteFileAtomic(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		saved, err := p.ReadProfile(path, "", "", "")
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		reloaded, st2, err := p.Build(BuildOptions{Opt: opt.Options{Config: opt.Selective}, Profile: saved})
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		want, got := describe(p, trained, st), describe(p, reloaded, st2)
		if st.AddedSpecs == 0 {
			t.Errorf("%s: training run produced no specializations", b.Name)
		}
		if got != want {
			t.Errorf("%s: directives from the reloaded profile differ\ntrained:\n%s\nreloaded:\n%s", b.Name, want, got)
		}
	}
}

func TestReadProfileSources(t *testing.T) {
	b := programs.Richards()
	p, err := LoadNamed(b.Name, b.Source)
	if err != nil {
		t.Fatal(err)
	}
	if cg, err := p.ReadProfile("", "", "-from-db", ""); cg != nil || err != nil {
		t.Fatalf("no source: cg=%v err=%v, want nil, nil", cg, err)
	}
	for _, tc := range []struct{ path, db, bench, want string }{
		{"", "dir", "", "-from-db requires -bench"},
		{"f.json", "dir", "Richards", "-from-db and -use-profile are mutually exclusive"},
	} {
		if _, err := p.ReadProfile(tc.path, tc.db, "-from-db", tc.bench); err == nil || err.Error() != tc.want {
			t.Errorf("ReadProfile(%q, %q, %q) err = %v, want %q", tc.path, tc.db, tc.bench, err, tc.want)
		}
	}

	// A database aggregate loads against its own program and is refused
	// by another one.
	cg := profile.NewCallGraph(p.Prog)
	if _, _, err := p.Build(BuildOptions{
		Opt:   opt.Options{Config: opt.Selective},
		Train: RunOptions{Overrides: b.Train, Profile: cg},
	}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	db, err := profdb.Open(dir, profdb.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Ingest(b.Name, cg.Wire()); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := p.ReadProfile("", dir, "-from-db", b.Name)
	if err != nil || got.Len() != cg.Len() {
		t.Fatalf("database profile: %v arcs, err %v; want %d arcs", got, err, cg.Len())
	}
	other, err := LoadNamed("Sets", programs.Sets().Source)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.ReadProfile("", dir, "-from-db", b.Name); err == nil ||
		!strings.Contains(err.Error(), "database profile does not match program") {
		t.Fatalf("foreign database profile: err = %v", err)
	}
}
