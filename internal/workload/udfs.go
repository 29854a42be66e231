package workload

import (
	"fmt"
	"math"
	"strings"

	"opportune/internal/cost"
	"opportune/internal/session"
	"opportune/internal/udf"
	"opportune/internal/value"
)

// The workload's UDF library mirrors the paper's (§8.2): "a log
// parser/extractor, text sentiment classifier, sentence tokenizer, lat/lon
// extractor, word count, restaurant menu similarity, and geographical
// tiling, among others", plus the classifiers the A1 example names
// (UDF-CLASSIFY-WINE-SCORE, UDAF-CLASSIFY-AFFLUENT, friendship strength).
// Each is real Go code annotated with the gray-box model; TrueScalar
// reflects its intrinsic computational weight relative to the relational
// baseline and is recovered by calibration (§4.2).

func tokenSet(s string) map[string]bool {
	out := make(map[string]bool)
	for _, w := range strings.Fields(strings.ToLower(s)) {
		out[strings.Trim(w, ".,!?")] = true
	}
	return out
}

func wordList(words []string) map[string]bool {
	m := make(map[string]bool, len(words))
	for _, w := range words {
		m[w] = true
	}
	return m
}

var (
	wineSet   = wordList(wineWords)
	foodSet   = wordList(foodWords)
	posSet    = wordList(posWords)
	negSet    = wordList(negWords)
	travelSet = wordList(travelWords)
)

// classifyScore is the shared sentiment-classifier core: topical hits
// scaled by sentiment polarity.
func classifyScore(text string, topic map[string]bool) float64 {
	var hits, pos, neg float64
	for _, w := range strings.Fields(strings.ToLower(text)) {
		w = strings.Trim(w, ".,!?")
		switch {
		case topic[w]:
			hits++
		case posSet[w]:
			pos++
		case negSet[w]:
			neg++
		}
	}
	if hits == 0 {
		return 0
	}
	return hits * (1 + pos - neg)
}

// UDFLibrary returns fresh descriptors for the full library.
func UDFLibrary() []*udf.Descriptor {
	return []*udf.Descriptor{
		{
			// Text sentiment classifier for wine topics (A1's
			// UDF-CLASSIFY-WINE-SCORE).
			Name: "UDF_CLASSIFY_WINE", NArgs: 1, Kind: udf.KindMap,
			OutNames: []string{"wine_score"},
			Map: func(args, _ []value.V) [][]value.V {
				return [][]value.V{{value.NewFloat(classifyScore(args[0].Str(), wineSet))}}
			},
			TrueScalar: 20,
		},
		{
			// Food sentiment classifier (UDF_FOODIES' lf1, Fig 3).
			Name: "UDF_CLASSIFY_FOOD", NArgs: 1, Kind: udf.KindMap,
			OutNames: []string{"food_score"},
			Map: func(args, _ []value.V) [][]value.V {
				return [][]value.V{{value.NewFloat(classifyScore(args[0].Str(), foodSet))}}
			},
			TrueScalar: 20,
		},
		{
			// Per-user affluence classifier (UDAF-CLASSIFY-AFFLUENT):
			// fraction of the user's tweets mentioning luxury/travel terms.
			Name: "UDF_AFFLUENCE", NArgs: 2, Kind: udf.KindAgg,
			KeyNames: []string{"user_id"}, KeyArgs: []int{0},
			OutNames: []string{"afflu"},
			Reduce: func(_ []value.V, payloads [][]value.V, _ []value.V) []value.V {
				hits := 0
				for _, p := range payloads {
					for w := range tokenSet(p[0].Str()) {
						if travelSet[w] {
							hits++
							break
						}
					}
				}
				return []value.V{value.NewFloat(float64(hits) / float64(len(payloads)))}
			},
			TrueScalar: 15,
		},
		{
			// Friendship strength: communicating user pairs scored by the
			// number of interactions (A1v1 step b).
			Name: "UDF_FRIEND_STRENGTH", NArgs: 2, Kind: udf.KindAgg,
			KeyNames: []string{"u1", "u2"}, DerivedKeys: true, PayloadCols: 1,
			OutNames: []string{"strength"},
			PreMap: func(args, _ []value.V) ([]value.V, []value.V, bool) {
				if args[1].IsNull() {
					return nil, nil, false
				}
				a, b := args[0].Int(), args[1].Int()
				if a == b {
					return nil, nil, false
				}
				if a > b {
					a, b = b, a
				}
				return []value.V{value.NewInt(a), value.NewInt(b)}, []value.V{value.NewInt(1)}, true
			},
			Reduce: func(_ []value.V, payloads [][]value.V, _ []value.V) []value.V {
				return []value.V{value.NewInt(int64(len(payloads)))}
			},
			TrueScalar: 5,
		},
		{
			// Sentence tokenizer: explodes a tweet into sentences.
			Name: "UDF_TOKENIZE", NArgs: 1, Kind: udf.KindMap,
			OutNames: []string{"sentence"}, Explode: true,
			Map: func(args, _ []value.V) [][]value.V {
				var out [][]value.V
				for _, s := range strings.Split(args[0].Str(), ". ") {
					s = strings.TrimSpace(s)
					if s != "" {
						out = append(out, []value.V{value.NewStr(s)})
					}
				}
				return out
			},
			TrueScalar: 8,
		},
		{
			// Lat/lon extractor: validates coordinates and discards rows
			// without geo data (most tweets).
			Name: "UDF_EXTRACT_GEO", NArgs: 2, Kind: udf.KindMap,
			OutNames: []string{"glat", "glon"}, Filters: true,
			Map: func(args, _ []value.V) [][]value.V {
				if args[0].IsNull() || args[1].IsNull() {
					return nil
				}
				la, lo := args[0].Float(), args[1].Float()
				if la < -90 || la > 90 || lo < -180 || lo > 180 {
					return nil
				}
				return [][]value.V{{value.NewFloat(la), value.NewFloat(lo)}}
			},
			TrueScalar: 2,
		},
		{
			// Word counter.
			Name: "UDF_WORD_COUNT", NArgs: 1, Kind: udf.KindMap,
			OutNames: []string{"n_words"},
			Map: func(args, _ []value.V) [][]value.V {
				return [][]value.V{{value.NewInt(int64(len(strings.Fields(args[0].Str()))))}}
			},
			TrueScalar: 3,
		},
		{
			// Geographical tiling at a parameterized grid size (degrees).
			Name: "UDF_GEO_TILE", NArgs: 2, NParams: 1, Kind: udf.KindMap,
			OutNames: []string{"tile"},
			Map: func(args, params []value.V) [][]value.V {
				size := params[0].Float()
				if size <= 0 {
					size = 0.1
				}
				tx := int(math.Floor(args[0].Float() / size))
				ty := int(math.Floor(args[1].Float() / size))
				return [][]value.V{{value.NewStr(fmt.Sprintf("%d:%d", tx, ty))}}
			},
			TrueScalar: 4,
		},
		{
			// Restaurant menu similarity against a parameter cuisine:
			// Jaccard overlap of menu tokens.
			Name: "UDF_MENU_SIM", NArgs: 1, NParams: 1, Kind: udf.KindMap,
			OutNames: []string{"menu_sim"},
			Map: func(args, params []value.V) [][]value.V {
				menu := tokenSet(args[0].Str())
				target := tokenSet(params[0].Str())
				if len(menu) == 0 || len(target) == 0 {
					return [][]value.V{{value.NewFloat(0)}}
				}
				inter := 0
				for w := range target {
					if menu[w] {
						inter++
					}
				}
				union := len(menu) + len(target) - inter
				return [][]value.V{{value.NewFloat(float64(inter) / float64(union))}}
			},
			TrueScalar: 25,
		},
		{
			// Log parser/extractor: normalizes text and tags a language.
			Name: "UDF_PARSE_LOG", NArgs: 1, Kind: udf.KindMap,
			OutNames: []string{"clean_text", "lang"},
			Map: func(args, _ []value.V) [][]value.V {
				clean := strings.Join(strings.Fields(strings.ToLower(args[0].Str())), " ")
				lang := "en"
				if len(clean) == 0 {
					lang = "unknown"
				}
				return [][]value.V{{value.NewStr(clean), value.NewStr(lang)}}
			},
			TrueScalar: 6,
		},
		{
			// Network influence: replies received per user (social network
			// operator class from §3).
			Name: "UDF_INFLUENCE", NArgs: 1, Kind: udf.KindAgg,
			KeyNames: []string{"influencer"}, DerivedKeys: true, PayloadCols: 1,
			OutNames: []string{"influence"},
			PreMap: func(args, _ []value.V) ([]value.V, []value.V, bool) {
				if args[0].IsNull() {
					return nil, nil, false
				}
				return []value.V{args[0]}, []value.V{value.NewInt(1)}, true
			},
			Reduce: func(_ []value.V, payloads [][]value.V, _ []value.V) []value.V {
				return []value.V{value.NewInt(int64(len(payloads)))}
			},
			TrueScalar: 10,
		},
	}
}

// RegisterUDFs installs the library into a session and calibrates each UDF
// on a 1% sample of its natural input dataset (§4.2, one-time effort).
func RegisterUDFs(s *session.Session) error {
	calibArgs := map[string]struct {
		dataset string
		args    []string
		params  []value.V
	}{
		"UDF_CLASSIFY_WINE":   {"twtr", []string{"text"}, nil},
		"UDF_CLASSIFY_FOOD":   {"twtr", []string{"text"}, nil},
		"UDF_AFFLUENCE":       {"twtr", []string{"user_id", "text"}, nil},
		"UDF_FRIEND_STRENGTH": {"twtr", []string{"user_id", "reply_to"}, nil},
		"UDF_TOKENIZE":        {"twtr", []string{"text"}, nil},
		"UDF_EXTRACT_GEO":     {"twtr", []string{"lat", "lon"}, nil},
		"UDF_WORD_COUNT":      {"twtr", []string{"text"}, nil},
		"UDF_GEO_TILE":        {"land", []string{"lat", "lon"}, []value.V{value.NewFloat(0.1)}},
		"UDF_MENU_SIM":        {"land", []string{"menu"}, []value.V{value.NewStr("pasta pizza")}},
		"UDF_PARSE_LOG":       {"twtr", []string{"text"}, nil},
		"UDF_INFLUENCE":       {"twtr", []string{"reply_to"}, nil},
	}
	for i, d := range UDFLibrary() {
		if err := s.Cat.UDFs.Register(d); err != nil {
			return err
		}
		ca, ok := calibArgs[d.Name]
		if !ok {
			return fmt.Errorf("workload: no calibration input for %s", d.Name)
		}
		if _, err := s.Cat.UDFs.Calibrate(s.Eng, ca.dataset, d, ca.args, ca.params, 1000+int64(i)); err != nil {
			return fmt.Errorf("workload: calibrating %s: %w", d.Name, err)
		}
	}
	return nil
}

// CostParams returns the engine/optimizer cost parameters experiments use.
func CostParams() cost.Params { return cost.DefaultParams() }
