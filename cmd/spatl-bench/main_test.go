package main

import "testing"

// TestScaleFlagsRefuseSilentReplacements: an override the run would
// replace — zero clients, a zero ratio (both defaulted by scenario.Spec)
// or an architecture models.Build panics on — is refused up front.
func TestScaleFlagsRefuseSilentReplacements(t *testing.T) {
	for _, bad := range []struct{ archs, clients string }{
		{"", "0:1.0"},
		{"", "4:0"},
		{"resnet99", ""},
	} {
		if _, err := scaleFromFlags("tiny", bad.archs, bad.clients, 0, 0); err == nil {
			t.Errorf("-archs %q -clients %q accepted", bad.archs, bad.clients)
		}
	}
	s, err := scaleFromFlags("tiny", "resnet20,vgg11", "4:1.0,8:0.5", 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Archs) != 2 || len(s.ClientSets) != 2 || s.Rounds != 3 || s.CurveRounds != 3 {
		t.Fatalf("overrides not applied: %+v", s)
	}
}
