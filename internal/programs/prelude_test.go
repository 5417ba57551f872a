package programs

import (
	"strings"
	"testing"

	"selspec/internal/driver"
	"selspec/internal/opt"
	"selspec/internal/specialize"
)

// runPrelude executes a program (with the prelude prepended) under the
// given configuration and returns the result.
func runPrelude(t *testing.T, body string, cfg opt.Config) *driver.Result {
	t.Helper()
	p, err := driver.Load(WithPrelude(body))
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.RunConfig(driver.ConfigOptions{
		Opt:  opt.Options{Config: cfg},
		Spec: specialize.Params{Threshold: -1},
		Run:  driver.RunOptions{CaptureOutput: true, StepLimit: 100_000_000},
	})
	if err != nil {
		t.Fatalf("%v: %v", cfg, err)
	}
	return res
}

func TestPreludeLoads(t *testing.T) {
	if _, err := driver.Load(WithPrelude(`method main() { 0; }`)); err != nil {
		t.Fatalf("prelude does not load: %v", err)
	}
}

func TestPreludeLinkedList(t *testing.T) {
	res := runPrelude(t, `
method main() {
  var l := mklist();
  l.push(1);
  l.push(2);
  l.push(3);
  println(str(l.size()) + " " + l.joinStrings(","));
  println(str(l.contains(2)) + " " + str(l.contains(9)));
  println(l.reverseTo().joinStrings(","));
  l.sumOf();
}
`, opt.Base)
	want := "3 3,2,1\ntrue false\n1,2,3\n"
	if res.Output != want || res.Value != "6" {
		t.Fatalf("output %q value %s", res.Output, res.Value)
	}
}

func TestPreludeVector(t *testing.T) {
	res := runPrelude(t, `
method main() {
  var v := mkvector();
  var i := 0;
  while i < 10 { v.vpush(9 - i); i := i + 1; }
  v.sortBy(fn(a, b) { a < b; });
  println(v.joinStrings(""));
  println(str(v.at(0)) + " " + str(v.at(9)));
  v.atPut(0, 42);
  println(str(v.maxOf(0)));
  v.size();
}
`, opt.Base)
	want := "0123456789\n0 9\n42\n"
	if res.Output != want || res.Value != "10" {
		t.Fatalf("output %q value %s", res.Output, res.Value)
	}
}

func TestPreludeVectorGrowth(t *testing.T) {
	// Push far past the initial capacity of 4.
	res := runPrelude(t, `
method main() {
  var v := mkvector();
  mkrange(0, 100).do(fn(i) { v.vpush(i); });
  str(v.size()) + " " + str(v.at(99)) + " " + str(v.sumOf());
}
`, opt.Base)
	if res.Value != "100 99 4950" {
		t.Fatalf("value %s", res.Value)
	}
}

func TestPreludeVectorBounds(t *testing.T) {
	p, err := driver.Load(WithPrelude(`method main() { mkvector().at(0); }`))
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.RunConfig(driver.ConfigOptions{})
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("err = %v", err)
	}
}

func TestPreludeDict(t *testing.T) {
	res := runPrelude(t, `
method main() {
  var d := mkdict();
  d.dput("a", 1);
  d.dput("b", 2);
  d.dput("a", 10);
  println(str(d.size()) + " " + str(d.dget("a", -1)) + " " + str(d.dget("zz", -1)));
  println(str(d.dhas("b")) + " " + str(d.dhas("c")));
  d.foldLeft(0, fn(acc, p) { acc + p.second; });
}
`, opt.Base)
	want := "2 10 -1\ntrue false\n"
	if res.Output != want || res.Value != "12" {
		t.Fatalf("output %q value %s", res.Output, res.Value)
	}
}

func TestPreludeRangeAndPredicates(t *testing.T) {
	res := runPrelude(t, `
method main() {
  var r := mkrange(3, 8);
  println(str(r.size()) + " " + r.joinStrings("+") + "=" + str(r.sumOf()));
  println(str(r.anySatisfies(fn(x) { x == 5; })) + " " + str(r.allSatisfy(fn(x) { x > 2; })));
  println(str(mkrange(5, 2).size()) + " " + str(mkrange(5, 2).isEmpty()));
  println(str(absInt(-4)) + " " + str(minInt(2, 9)) + " " + str(maxInt(2, 9)));
  r.countWhere(fn(x) { x % 2 == 1; });
}
`, opt.Base)
	want := "5 3+4+5+6+7=25\ntrue true\n0 true\n4 2 9\n"
	if res.Output != want || res.Value != "3" {
		t.Fatalf("output %q value %s", res.Output, res.Value)
	}
}

func TestPreludeMapFilter(t *testing.T) {
	res := runPrelude(t, `
method main() {
  var squares := mkrange(1, 6).mapTo(fn(x) { x * x; });
  var odds := squares.filterTo(fn(x) { x % 2 == 1; });
  println(squares.joinStrings(",") + " | " + odds.joinStrings(","));
  odds.sumOf();
}
`, opt.Base)
	if res.Output != "1,4,9,16,25 | 1,9,25\n" || res.Value != "35" {
		t.Fatalf("output %q value %s", res.Output, res.Value)
	}
}

// TestCollectionsProgramAllConfigs runs the library-exercise program
// under every configuration (with and without the §6 return-type
// extension): results must always agree.
//
// Library-style code is dominated by sends on constructor *results*
// ("var out := mkvector(); out.vpush(...)"), which no configuration of
// the published system can bind — the paper's §6 names exactly this as
// future work ("specializing callers for the return values of the
// called methods"). The dispatch-reduction assertion therefore runs
// Selective with ReturnTypeAnalysis on: return info gives out's class,
// specialization pins the collection argument, do inlines, the closure
// inlines, and the per-element vpush binds.
func TestCollectionsProgramAllConfigs(t *testing.T) {
	b := Collections()
	p, err := driver.Load(b.Source)
	if err != nil {
		t.Fatal(err)
	}
	run := func(cfg opt.Config, rta bool) *driver.Result {
		res, err := p.RunConfig(driver.ConfigOptions{
			Opt:   opt.Options{Config: cfg, ReturnTypeAnalysis: rta},
			Train: b.Train,
			Test:  b.Test,
			Spec:  specialize.Params{Threshold: specialize.DefaultThreshold},
			Run:   driver.RunOptions{CaptureOutput: true, StepLimit: 500_000_000},
		})
		if err != nil {
			t.Fatalf("%v/rta=%t: %v", cfg, rta, err)
		}
		return res
	}

	base := run(opt.Base, false)
	results := map[string]*driver.Result{"Base": base}
	for _, cfg := range []opt.Config{opt.Cust, opt.CustMM, opt.CHA, opt.Selective} {
		results[cfg.String()] = run(cfg, false)
	}
	results["CHA+ret"] = run(opt.CHA, true)
	results["Selective+ret"] = run(opt.Selective, true)

	for name, res := range results {
		if res.Value != base.Value || res.Output != base.Output {
			t.Errorf("%s result %q != Base %q", name, res.Value, base.Value)
		}
	}
	for _, name := range []string{"Base", "Cust", "Cust-MM", "CHA", "Selective", "CHA+ret", "Selective+ret"} {
		t.Logf("Collections %-14s dispatches=%8d cycles=%9d versions=%d",
			name, results[name].Counters.DynamicDispatches(),
			results[name].Counters.Cycles, results[name].Stats.Versions)
	}

	selRet := results["Selective+ret"].Counters.DynamicDispatches()
	if float64(selRet) > 0.8*float64(base.Counters.DynamicDispatches()) {
		t.Errorf("Selective+return-types (%d) should cut dispatches well below Base (%d)",
			selRet, base.Counters.DynamicDispatches())
	}
	if selRet >= results["Selective"].Counters.DynamicDispatches() {
		t.Errorf("return-type analysis should help Selective on library code: %d vs %d",
			selRet, results["Selective"].Counters.DynamicDispatches())
	}
}
