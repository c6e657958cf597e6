package analysis

import "testing"

func TestDeterminismGolden(t *testing.T) { runGolden(t, DeterminismAnalyzer, "determinism") }

func TestHotpathGolden(t *testing.T) { runGolden(t, HotpathAnalyzer, "hotpath") }

func TestLockcheckGolden(t *testing.T) { runGolden(t, LockcheckAnalyzer, "lockcheck") }

func TestErrclassGolden(t *testing.T) { runGolden(t, ErrclassAnalyzer, "errclass") }

// The deadexport corpus is a module of its own (with a nested module),
// since the analyzer indexes uses across the whole repo around a package.
func TestDeadexportGolden(t *testing.T) {
	runGolden(t, DeadexportAnalyzer, "deadexport/internal/lib")
}

// TestSuiteCleanOnRepo is the acceptance gate sidco-vet enforces in
// CI: the full analyzer suite over the whole module must be silent —
// every genuine finding fixed, every intentional one annotated with a
// reasoned directive.
func TestSuiteCleanOnRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the full module")
	}
	pkgs, err := Load("../..", "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	diags, err := RunAnalyzers(pkgs, All())
	if err != nil {
		t.Fatalf("running suite: %v", err)
	}
	for _, d := range diags {
		pos := pkgs[0].Fset.Position(d.Pos)
		t.Errorf("%s: %s: %s", pos, d.Analyzer, d.Message)
	}
}
