package ml

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"testing"

	"github.com/rockhopper-db/rockhopper/internal/stats"
)

// legacyGobBlob is what Marshal wrote for a fitted one-feature *Linear
// before the flat format replaced the gob envelope. There is no legacy read
// path — a model is derived data the next ingest rewrites — so it must be
// refused like any other non-magic bytes.
const legacyGobBlob = "28ff8703010108656e76656c6f706501ff8800010201044b696e64010c000104426c6f62010a000000fe0142ff8801066c696e65617201fe0133717f0301010e6c696e656172536e617073686f7401ff8000010701064c616d6264610108000106457870616e6401ff8200010b5374616e64617264697a650102000104436f656601ff84000109496e7465726365707401080001065363616c657201ff86000106466974746564010200000043ff810301010f46656174757265457870616e64657201ff82000103010c496e746572616374696f6e73010200010753717561726573010200010442696173010200000017ff83020101095b5d666c6f6174363401ff84000108000029ff85030101065363616c657201ff8600010201044d65616e01ff840001055363616c6501ff840000003aff8001f87b14ae47e17a843f010001010101f80f43e9ac840afa3f01f8fcddc78996eb0740010101fef03f0101f83e2c0c70bd20ea3f0001010000"

// codecModels returns one fitted model per serializable kind, with and
// without a scaler, on n rows of dim features drawn from r.
func codecModels(t testing.TB, r *stats.RNG, n, dim int) []Regressor {
	t.Helper()
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i], y[i] = synthPoint(r, dim)
	}
	var models []Regressor
	for _, standardize := range []bool{true, false} {
		lin := NewLinear(0.01)
		lin.Standardize = standardize
		lin.Expand = FeatureExpander{Interactions: standardize, Squares: true, Bias: !standardize}
		kr := NewKernelRidge()
		kr.Standardize = standardize
		kr.Alpha = 0.3
		knn := NewKNN()
		knn.Standardize = standardize
		knn.K = 3
		for _, m := range []Regressor{lin, kr, knn} {
			if err := m.Fit(x, y); err != nil {
				t.Fatalf("%T fit: %v", m, err)
			}
			models = append(models, m)
		}
	}
	return models
}

// TestMarshalBitIdentical is the codec's round-trip property: a decoded
// model predicts bit-for-bit what the original does (so retraining on the
// server and scoring on the client cannot disagree), and re-encodes to the
// same bytes.
func TestMarshalBitIdentical(t *testing.T) {
	t.Parallel()
	r := stats.NewRNG(16)
	for _, shape := range [][2]int{{1, 1}, {4, 2}, {16, 4}, {100, 6}} {
		n, dim := shape[0], shape[1]
		for _, m := range codecModels(t, r, n, dim) {
			blob, err := Marshal(m)
			if err != nil {
				t.Fatalf("%T n=%d: marshal: %v", m, n, err)
			}
			back, err := Unmarshal(blob)
			if err != nil {
				t.Fatalf("%T n=%d: unmarshal: %v", m, n, err)
			}
			for q := 0; q < 8; q++ {
				probe, _ := synthPoint(r, dim)
				a, b := m.Predict(probe), back.Predict(probe)
				if math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("%T n=%d: prediction %v became %v after a round trip", m, n, a, b)
				}
			}
			again, err := Marshal(back)
			if err != nil {
				t.Fatalf("%T n=%d: re-marshal: %v", m, n, err)
			}
			if !bytes.Equal(blob, again) {
				t.Fatalf("%T n=%d: re-marshal differs from the first encoding", m, n)
			}
		}
	}
	// Unfitted models round-trip too (and still predict NaN).
	for _, m := range []Regressor{NewLinear(0.5), NewKernelRidge(), NewKNN()} {
		blob, err := Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		back, err := Unmarshal(blob)
		if err != nil {
			t.Fatalf("%T unfitted: %v", m, err)
		}
		if !math.IsNaN(back.Predict([]float64{1})) {
			t.Fatalf("%T unfitted predicts after a round trip", m)
		}
	}
}

// malformedBlobs returns byte strings Unmarshal must refuse, keyed by what
// is wrong with them. They double as the fuzz corpus.
func malformedBlobs(t testing.TB) map[string][]byte {
	t.Helper()
	models := codecModels(t, stats.NewRNG(3), 5, 2) // [0] a scaled *Linear, [1] a scaled *KernelRidge
	valid, err := Marshal(models[1])
	if err != nil {
		t.Fatal(err)
	}
	linear, err := Marshal(models[0])
	if err != nil {
		t.Fatal(err)
	}
	linear[6] ^= flagSquares // five coefficients no longer match a two-wide scaler
	edit := func(f func(b []byte)) []byte {
		b := append([]byte(nil), valid...)
		f(b)
		return b
	}
	gob, err := hex.DecodeString(legacyGobBlob)
	if err != nil {
		t.Fatal(err)
	}
	bad := map[string][]byte{
		"empty":         nil,
		"legacy gob":    gob,
		"wrong magic":   edit(func(b []byte) { b[0] = 'X' }),
		"wrong version": edit(func(b []byte) { b[4] = modelVersion + 1 }),
		"kind zero":     edit(func(b []byte) { b[5] = 0 }),
		"kind unknown":  edit(func(b []byte) { b[5] = kindKNN + 1 }),
		"unknown flag":  edit(func(b []byte) { b[6] |= 0x80 }),
		"reserved byte": edit(func(b []byte) { b[7] = 1 }),
		"one row more":  edit(func(b []byte) { b[8]++ }),
		"scaler too narrow": edit(func(b []byte) {
			// Drop one scaler column and its two floats: lengths agree, widths do not.
			b[16]--
		})[:len(valid)-16],
		"scaler width without scaler": edit(func(b []byte) { b[6] &^= flagScaler }),
		"n·d overflow": edit(func(b []byte) {
			binary.LittleEndian.PutUint32(b[8:], math.MaxUint32)
			binary.LittleEndian.PutUint32(b[12:], math.MaxUint32)
		}),
		"trailing byte":               append(append([]byte(nil), valid...), 0),
		"half a float":                valid[:len(valid)-4],
		"linear with d":               edit(func(b []byte) { b[5] = kindLinear }),
		"linear coef/scaler mismatch": linear,
	}
	// Truncated at every header field boundary, and just short of the payload.
	for _, cut := range []int{1, 4, 5, 6, 7, 8, 12, 16, 20, 28, 36, 44, headerLen - 1, headerLen, len(valid) - 8} {
		bad[fmt.Sprintf("truncated at %d", cut)] = valid[:cut]
	}
	return bad
}

func TestUnmarshalRejectsMalformed(t *testing.T) {
	t.Parallel()
	for name, blob := range malformedBlobs(t) {
		m, err := Unmarshal(blob)
		if !errors.Is(err, ErrFormat) {
			t.Errorf("%s: Unmarshal = (%v, %v); want ErrFormat", name, m, err)
		}
	}
}

// queryWidth is the feature count a decoded model expects, or -1 when the
// blob does not pin one (a linear model with no scaler, a model with no rows).
func queryWidth(m Regressor) int {
	var rows [][]float64
	switch m := m.(type) {
	case *Linear:
		if m.scaler != nil {
			return len(m.scaler.Mean)
		}
	case *KernelRidge:
		rows = m.xTrain
	case *KNN:
		rows = m.xTrain
	}
	if len(rows) > 0 {
		return len(rows[0])
	}
	return -1
}

// FuzzModelUnmarshal feeds Unmarshal arbitrary bytes, which is what a model
// fetched over the network is. It must never panic; what it refuses it must
// refuse as ErrFormat; what it accepts must hold exactly the floats the
// input carried (so memory is O(len(input)) whatever n and d the header
// claims), must be safe to score at its own width, and must re-encode to a
// blob that decodes to the same bytes again.
func FuzzModelUnmarshal(f *testing.F) {
	for _, m := range codecModels(f, stats.NewRNG(9), 6, 3) {
		blob, err := Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	for _, blob := range malformedBlobs(f) {
		f.Add(blob)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unmarshal(data)
		if err != nil {
			if !errors.Is(err, ErrFormat) || m != nil {
				t.Fatalf("Unmarshal = (%v, %v); want (nil, ErrFormat)", m, err)
			}
			return
		}
		blob, err := Marshal(m)
		if err != nil {
			t.Fatalf("accepted model does not re-marshal: %v", err)
		}
		if len(blob) != len(data) {
			t.Fatalf("accepted %d bytes but the model re-encodes to %d", len(data), len(blob))
		}
		back, err := Unmarshal(blob)
		if err != nil {
			t.Fatalf("re-encoded model refused: %v", err)
		}
		if again, err := Marshal(back); err != nil || !bytes.Equal(blob, again) {
			t.Fatalf("second round trip changed the bytes (err %v)", err)
		}
		if w := queryWidth(m); w >= 0 {
			m.Predict(make([]float64, w))
		}
	})
}
