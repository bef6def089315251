package scenario

import (
	"bytes"
	"strings"
	"testing"
)

func TestSpecDefaultsAreRunnable(t *testing.T) {
	s := Spec{}.WithDefaults()
	if err := s.Validate(); err != nil {
		t.Fatalf("defaulted zero spec invalid: %v", err)
	}
	if s.Algo != "fedavg" || s.Dataset != DataCIFAR || s.Transport.Kind != TransportSim {
		t.Fatalf("unexpected defaults: %+v", s)
	}
	f := Spec{Dataset: DataFEMNIST}.WithDefaults()
	if f.Arch != "cnn2" || f.Partition.Kind != PartWriter {
		t.Fatalf("femnist defaults wrong: arch=%s partition=%s", f.Arch, f.Partition.Kind)
	}
	if f.Writers != 3*f.Clients {
		t.Fatalf("writers default %d, want %d", f.Writers, 3*f.Clients)
	}
}

// TestSpecJSONRoundTrip: encode -> decode -> encode is byte-identical —
// the property the ISSUE's determinism satellite names for spec files.
func TestSpecJSONRoundTrip(t *testing.T) {
	s := microBase().WithDefaults()
	s.Net = Net{Profile: "mobile", ComputeSec: 2}
	b1, err := EncodeJSON(s)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := DecodeSpec(b1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := EncodeJSON(s2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("round trip not byte-identical:\n%s\nvs\n%s", b1, b2)
	}

	m := presets["acceptance"].Matrix
	mb1, err := EncodeJSON(m)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := DecodeMatrix(mb1)
	if err != nil {
		t.Fatal(err)
	}
	mb2, err := EncodeJSON(m2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mb1, mb2) {
		t.Fatal("matrix round trip not byte-identical")
	}
}

// TestDecodeSpecRejectsMalformed: the error sweep — unknown fields,
// unknown enums, out-of-range knobs, unsupported combinations.
func TestDecodeSpecRejectsMalformed(t *testing.T) {
	cases := []struct {
		name, json, want string
	}{
		{"unknown field", `{"algo": "fedavg", "typo_field": 3}`, "typo_field"},
		{"unknown algo", `{"algo": "fedsgd"}`, "unknown algorithm"},
		{"unknown arch", `{"algo": "fedavg", "arch": "resnet99"}`, "unknown arch"},
		{"unknown dataset", `{"algo": "fedavg", "dataset": "imagenet"}`, "unknown dataset"},
		{"unknown partition", `{"algo": "fedavg", "partition": {"kind": "iid"}}`, "unknown partition"},
		{"unknown transport", `{"algo": "fedavg", "transport": {"kind": "udp"}}`, "unknown transport"},
		{"participation over 1", `{"algo": "fedavg", "participation": 1.5}`, "participation"},
		{"negative churn", `{"algo": "fedavg", "churn": -0.5}`, "churn"},
		{"churn over tcp", `{"algo": "fedavg", "churn": 0.2, "transport": {"kind": "tcp"}}`, "churn"},
		{"writer partition on cifar", `{"algo": "fedavg", "partition": {"kind": "writer"}}`, "femnist"},
		{"dirichlet on femnist", `{"algo": "fedavg", "dataset": "femnist", "partition": {"kind": "dirichlet"}}`, "writer"},
		{"bad alpha", `{"algo": "fedavg", "partition": {"kind": "dirichlet", "alpha": -1}}`, "alpha"},
		{"bad quorum frac", `{"algo": "fedavg", "transport": {"kind": "quorum", "on_time_frac": 2}}`, "on_time_frac"},
		{"unknown net profile", `{"algo": "fedavg", "net": {"profile": "satellite"}}`, "profile"},
		{"not json", `{"algo":`, "bad spec"},
	}
	for _, tc := range cases {
		_, err := DecodeSpec([]byte(tc.json))
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	if _, err := DecodeSpec([]byte(`{"algo": "fedavg"}`)); err != nil {
		t.Fatalf("minimal valid spec rejected: %v", err)
	}
}

func TestCellKeyIsFilenameSafeAndDistinct(t *testing.T) {
	a := microBase().WithDefaults()
	b := a
	b.Participation = 0.5
	if a.Key() == b.Key() {
		t.Fatal("different cells share a key")
	}
	for _, k := range []string{a.Key(), b.Key()} {
		if strings.ContainsAny(k, "/\\ \t:*?\"<>|") {
			t.Fatalf("key %q is not filename-safe", k)
		}
	}
	// The key is stable — journal filenames and derived seeds depend on it.
	if got := a.Key(); got != "fedavg_cifar_mlp_c4_p1_dir0.5_sim_s1" {
		t.Fatalf("key changed: %s", got)
	}
}

func TestDeriveSeedStableAndDistinct(t *testing.T) {
	s1 := DeriveSeed(1, "a")
	if s1 != DeriveSeed(1, "a") {
		t.Fatal("DeriveSeed not deterministic")
	}
	if s1 == DeriveSeed(1, "b") || s1 == DeriveSeed(2, "a") {
		t.Fatal("DeriveSeed collides across key/base changes")
	}
	if s1 <= 0 {
		t.Fatalf("seed %d not positive", s1)
	}
}
