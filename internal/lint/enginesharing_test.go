package lint_test

import (
	"testing"

	"github.com/hpclab/datagrid/internal/lint"
	"github.com/hpclab/datagrid/internal/lint/linttest"
)

func TestEngineSharing(t *testing.T) {
	linttest.Run(t, linttest.TestData(), lint.EngineSharing, "enginesharing")
}
