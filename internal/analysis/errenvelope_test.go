package analysis

import "testing"

func TestErrEnvelopeFixture(t *testing.T) {
	runFixture(t, ErrEnvelopeAnalyzer, "errenvelope/campaign", "c3d/internal/campaign")
}

func TestErrEnvelopeNegativeFixtureFails(t *testing.T) {
	requireFindings(t, ErrEnvelopeAnalyzer, "errenvelope/campaign", "c3d/internal/campaign", 2)
}
