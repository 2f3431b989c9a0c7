package replica

import (
	"errors"
	"testing"

	"tiermerge/internal/merge"
	"tiermerge/internal/model"
)

// TestConfigValidate: misconfiguration fails fast with the typed sentinel
// (embedded merge options keep their own), valid configurations — the zero
// value's defaults included — pass, and NewBaseCluster panics instead of
// deferring the failure to the first merge.
func TestConfigValidate(t *testing.T) {
	for _, c := range []Config{
		{},
		{BaseNodes: 3, Origin: Strategy1},
		{Origin: Strategy2, MergeOptions: merge.Options{DisableDeltas: true}},
	} {
		if err := c.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", c, err)
		}
	}
	for _, c := range []Config{
		{BaseNodes: -1},
		{Origin: OriginStrategy(-1)},
		{Origin: OriginStrategy(7)},
	} {
		err := c.Validate()
		if !errors.Is(err, ErrBadConfig) {
			t.Errorf("Validate(%+v) = %v, want ErrBadConfig", c, err)
		}
	}

	bad := Config{MergeOptions: merge.Options{Rewriter: -1}}
	if err := bad.Validate(); !errors.Is(err, merge.ErrBadOptions) {
		t.Errorf("Validate(bad merge options) = %v, want merge.ErrBadOptions", err)
	}

	defer func() {
		if recover() == nil {
			t.Error("NewBaseCluster(bad config) did not panic")
		}
	}()
	NewBaseCluster(model.State{}, Config{BaseNodes: -1})
}
