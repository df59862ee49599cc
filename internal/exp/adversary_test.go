package exp

import (
	"testing"

	"tasp/internal/campaign"
)

// TestAdversaryExtensionRegistered pins the extension studies to the
// campaign presets: each, adversary among them, is rendered by `campaign
// aggregate -preset`, and none is part of -exp all (the canonical output
// is a regression baseline).
func TestAdversaryExtensionRegistered(t *testing.T) {
	found := false
	for _, p := range campaign.Presets() {
		found = found || p.Name == "adversary"
		if _, ok := Lookup(Registry("blackscholes"), p.Name); ok {
			t.Errorf("%s study leaked into the canonical registry", p.Name)
		}
	}
	if !found {
		t.Fatal("adversary preset not registered")
	}
}
