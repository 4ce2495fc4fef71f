package attack

import (
	"leakydnn/internal/dnn"
	"leakydnn/internal/trace"
)

// LetterTruth extracts the per-sample ground-truth letters ('N' for NOP) of
// the labels in [r.Start, r.End).
func LetterTruth(labels []trace.Label, r Range) []byte {
	out := make([]byte, 0, r.End-r.Start)
	for i := r.Start; i < r.End && i < len(labels); i++ {
		if labels[i].IsNOP {
			out = append(out, 'N')
		} else {
			out = append(out, labels[i].Letter)
		}
	}
	return out
}

// LetterAccuracy compares predicted per-sample letters with ground truth,
// reporting per-letter and overall accuracy (Table VII's metric).
func LetterAccuracy(pred, truth []byte) (perLetter map[byte]float64, overall float64) {
	perLetter = make(map[byte]float64)
	correct := make(map[byte]int)
	total := make(map[byte]int)
	var allCorrect, allTotal int
	n := len(pred)
	if len(truth) < n {
		n = len(truth)
	}
	for i := 0; i < n; i++ {
		total[truth[i]]++
		allTotal++
		if pred[i] == truth[i] {
			correct[truth[i]]++
			allCorrect++
		}
	}
	for l, t := range total {
		perLetter[l] = float64(correct[l]) / float64(t)
	}
	if allTotal > 0 {
		overall = float64(allCorrect) / float64(allTotal)
	}
	return perLetter, overall
}

// LayerAccuracy compares the recovered layer sequence with the true model
// (Table IX's Accuracy_L and Accuracy_HP): position-by-position layer-kind
// matches, and among matched trainable layers, the fraction of correct
// hyper-parameter fields (filter size, filter count, stride, activation for
// conv; neurons, activation for FC).
func LayerAccuracy(layers []RecoveredLayer, m dnn.Model) (layerAcc, hpAcc float64) {
	truth := m.Layers
	n := len(truth)
	if len(layers) < n {
		n = len(layers)
	}
	var layerCorrect int
	var hpCorrect, hpTotal int
	for i := 0; i < n; i++ {
		if layers[i].Kind != truth[i].Kind {
			continue
		}
		layerCorrect++
		switch truth[i].Kind {
		case dnn.LayerConv:
			hpTotal += 4
			if layers[i].FilterSize == truth[i].FilterSize {
				hpCorrect++
			}
			if layers[i].NumFilters == truth[i].NumFilters {
				hpCorrect++
			}
			if layers[i].Stride == truth[i].Stride {
				hpCorrect++
			}
			if layers[i].Act == truth[i].Act {
				hpCorrect++
			}
		case dnn.LayerFC:
			hpTotal += 2
			if layers[i].Neurons == truth[i].Neurons {
				hpCorrect++
			}
			if layers[i].Act == truth[i].Act {
				hpCorrect++
			}
		}
	}
	if len(truth) > 0 {
		layerAcc = float64(layerCorrect) / float64(len(truth))
	}
	if hpTotal > 0 {
		hpAcc = float64(hpCorrect) / float64(hpTotal)
	}
	return layerAcc, hpAcc
}

// GapAccuracy scores Mgap's NOP/BUSY classification against ground truth
// (Table VI's metric), returning accuracy over NOP samples, over BUSY
// samples, and their counts.
func GapAccuracy(isNOP []bool, labels []trace.Label) (nopAcc, busyAcc float64, nopN, busyN int) {
	var nopCorrect, busyCorrect int
	for i := range isNOP {
		if i >= len(labels) {
			break
		}
		if labels[i].IsNOP {
			nopN++
			if isNOP[i] {
				nopCorrect++
			}
		} else {
			busyN++
			if !isNOP[i] {
				busyCorrect++
			}
		}
	}
	if nopN > 0 {
		nopAcc = float64(nopCorrect) / float64(nopN)
	}
	if busyN > 0 {
		busyAcc = float64(busyCorrect) / float64(busyN)
	}
	return nopAcc, busyAcc, nopN, busyN
}
