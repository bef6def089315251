package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestScaleByName(t *testing.T) {
	for _, name := range []string{"tiny", "small", "paper"} {
		s, err := ScaleByName(name)
		if err != nil || s.Name != name {
			t.Fatalf("ScaleByName(%q) = %v, %v", name, s.Name, err)
		}
	}
	if _, err := ScaleByName("huge"); err == nil {
		t.Fatal("expected error for unknown scale")
	}
}

func TestRegistryComplete(t *testing.T) {
	// Every experiment in DESIGN.md's index must be registered.
	want := []string{
		"learning", "femnist", "converge", "localacc", "table1", "rounds",
		"table2", "table3", "inference", "table4",
		"ablation-select", "ablation-transfer", "ablation-gradctl", "rlagent",
		"compression", "robustness", "walltime", "ssfl-comm",
	}
	for _, id := range want {
		if Registry[id] == nil {
			t.Fatalf("experiment %q not registered", id)
		}
	}
	if len(Names()) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(Names()), len(want))
	}
}

func TestBuildCIFAREnvShape(t *testing.T) {
	env := BuildCIFAREnv(Tiny, "resnet20", ClientSet{4, 0.5}, 1)
	if len(env.Clients) != 4 {
		t.Fatalf("clients = %d", len(env.Clients))
	}
	for _, c := range env.Clients {
		if c.Train.Len() == 0 || c.Val.Len() == 0 {
			t.Fatal("client datasets empty")
		}
	}
	if len(env.SampleClients()) != 2 {
		t.Fatal("sample ratio not applied")
	}
}

func TestBuildFEMNISTEnvShape(t *testing.T) {
	env := BuildFEMNISTEnv(Tiny, ClientSet{4, 1.0}, 1)
	if len(env.Clients) != 4 {
		t.Fatalf("clients = %d", len(env.Clients))
	}
	if env.Spec.Arch != "cnn2" || env.Spec.Classes != 62 {
		t.Fatalf("unexpected spec %v", env.Spec)
	}
}

func TestPretrainedAgentCached(t *testing.T) {
	s := Tiny
	s.PretrainRounds = 1
	a := PretrainedAgent(s, 7)
	b := PretrainedAgent(s, 7)
	if len(a) == 0 {
		t.Fatal("empty agent blob")
	}
	if &a[0] != &b[0] {
		t.Fatal("agent should be cached (same backing array)")
	}
}

func TestNewAlgorithmNames(t *testing.T) {
	s := Tiny
	s.PretrainRounds = 1
	for _, name := range AllAlgos {
		a := NewAlgorithm(name, s, 1)
		if a.Name() != name {
			t.Fatalf("NewAlgorithm(%q).Name() = %q", name, a.Name())
		}
	}
}

func TestLearningDriverSmoke(t *testing.T) {
	var buf bytes.Buffer
	o := microOpts(t, &buf)
	o.CSVDir = t.TempDir()
	if err := FEMNISTLearning(o); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, algo := range AllAlgos {
		if !strings.Contains(out, algo) {
			t.Fatalf("output missing %q:\n%s", algo, out)
		}
	}
	// CSV exported.
	files, _ := os.ReadDir(o.CSVDir)
	if len(files) == 0 {
		t.Fatal("no CSV exported")
	}
	data, err := os.ReadFile(filepath.Join(o.CSVDir, files[0].Name()))
	if err != nil || !strings.HasPrefix(string(data), "round,") {
		t.Fatalf("CSV malformed: %v %q", err, string(data[:min(40, len(data))]))
	}
}

func TestTable1DriverSmoke(t *testing.T) {
	var buf bytes.Buffer
	o := microOpts(t, &buf)
	if err := Table1Communication(o); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Table I") || !strings.Contains(out, "speedup") {
		t.Fatalf("unexpected output:\n%s", out)
	}
}

func TestAblationDriverSmoke(t *testing.T) {
	var buf bytes.Buffer
	o := microOpts(t, &buf)
	if err := AblationGradientControl(o); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "with gradient-control") || !strings.Contains(out, "without gradient-control") {
		t.Fatalf("ablation output missing variants:\n%s", out)
	}
}

func TestRLAgentDriverSmoke(t *testing.T) {
	var buf bytes.Buffer
	o := microOpts(t, &buf)
	if err := RLAgentFineTune(o); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "resnet56") && !strings.Contains(out, "ResNet-56") {
		t.Fatalf("missing pretrain section:\n%s", out)
	}
	if !strings.Contains(out, "agent footprint") {
		t.Fatal("missing agent footprint line")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
