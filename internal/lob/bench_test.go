package lob

import (
	"testing"

	"tasp/internal/ecc"
)

func benchChoice(b *testing.B, c Choice) {
	b.Helper()
	ks := NewKeystream(1)
	cw := ecc.Encode(0x0123456789abcdef)
	key := ks.Next()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cw = defaultWindows.Undo(defaultWindows.Apply(cw, c, key), c, key)
	}
}

func BenchmarkScrambleWholeFlit(b *testing.B) { benchChoice(b, Choice{Scramble, WholeFlit}) }
func BenchmarkInvertWholeFlit(b *testing.B)   { benchChoice(b, Choice{Invert, WholeFlit}) }
func BenchmarkShuffleWholeFlit(b *testing.B)  { benchChoice(b, Choice{Shuffle, WholeFlit}) }
func BenchmarkReorderHeaderOnly(b *testing.B) { benchChoice(b, Choice{Reorder, HeaderOnly}) }
