package workload

import "testing"

func TestPaperSweeps(t *testing.T) {
	if len(PaperFileSizesMB) != 4 || PaperFileSizesMB[0] != 256 || PaperFileSizesMB[3] != 2048 {
		t.Fatalf("file sizes = %v", PaperFileSizesMB)
	}
	if len(PaperStreamCounts) != 6 || PaperStreamCounts[0] != 0 || PaperStreamCounts[5] != 16 {
		t.Fatalf("stream counts = %v", PaperStreamCounts)
	}
}
