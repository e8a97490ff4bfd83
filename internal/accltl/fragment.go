package accltl

import (
	"fmt"

	"accltl/internal/fo"
)

// Fragment names the sublanguages of Table 1.
type Fragment int

const (
	// FragFullNeq is AccLTL(FO∃+,≠_Acc): full bindings with inequalities.
	// Satisfiability undecidable (Theorem 5.2).
	FragFullNeq Fragment = iota
	// FragFull is AccLTL(FO∃+_Acc). Satisfiability undecidable (Theorem 3.1).
	FragFull
	// FragPlus is AccLTL+ — binding-positive AccLTL(FO∃+_Acc). Decidable in
	// 3EXPTIME (Theorem 4.2).
	FragPlus
	// FragZeroAcc is AccLTL(FO∃+_0-Acc). PSPACE-complete (Theorem 4.12).
	FragZeroAcc
	// FragZeroAccNeq is AccLTL(FO∃+,≠_0-Acc). PSPACE-complete (Theorem 5.1).
	FragZeroAccNeq
	// FragXZeroAcc is AccLTL(X)(FO∃+_0-Acc) and its ≠ extension.
	// ΣP2-complete (Theorems 4.14, 5.1).
	FragXZeroAcc
)

// String names the fragment as in the paper.
func (f Fragment) String() string {
	switch f {
	case FragFullNeq:
		return "AccLTL(FO∃+,≠_Acc)"
	case FragFull:
		return "AccLTL(FO∃+_Acc)"
	case FragPlus:
		return "AccLTL+"
	case FragZeroAcc:
		return "AccLTL(FO∃+_0-Acc)"
	case FragZeroAccNeq:
		return "AccLTL(FO∃+,≠_0-Acc)"
	case FragXZeroAcc:
		return "AccLTL(X)(FO∃+,≠_0-Acc)"
	default:
		return fmt.Sprintf("Fragment(%d)", int(f))
	}
}

// Decidable reports whether satisfiability of the fragment is decidable.
func (f Fragment) Decidable() bool {
	return f == FragPlus || f == FragZeroAcc || f == FragZeroAccNeq || f == FragXZeroAcc
}

// Info is the result of classifying a formula.
type Info struct {
	// EmbeddedPositive: every embedded sentence is in FO∃+ (possibly ≠).
	EmbeddedPositive bool
	// HasInequality: some embedded sentence uses ≠.
	HasInequality bool
	// ZeroAcc: every IsBind atom is 0-ary.
	ZeroAcc bool
	// BindingPositive: every IsBind atom occurs under an even number of
	// negations, counting both temporal and first-order negations
	// (Definition 4.1).
	BindingPositive bool
	// OnlyNext: the only temporal operator is X (the AccLTL(X) fragment).
	OnlyNext bool
	// HasPast: uses Prev or Since (outside every fragment of the paper; no
	// solver accepts it).
	HasPast bool
	// MentionsBind: some IsBind atom occurs at all.
	MentionsBind bool
}

// Classify inspects a formula and computes its fragment-relevant features.
func Classify(f Formula) Info {
	info := Info{EmbeddedPositive: true, ZeroAcc: true, BindingPositive: true, OnlyNext: true}
	classify(f, true, &info)
	return info
}

func classify(f Formula, polarity bool, info *Info) {
	switch g := f.(type) {
	case Atom:
		if !fo.IsPositive(g.Sentence) {
			info.EmbeddedPositive = false
		}
		if fo.HasInequality(g.Sentence) {
			info.HasInequality = true
		}
		if !fo.IsZeroAcc(g.Sentence) {
			info.ZeroAcc = false
		}
		if fo.MentionsIsBind(g.Sentence) {
			info.MentionsBind = true
			switch fo.IsBindPolarity(g.Sentence) {
			case fo.BindPositive:
				if !polarity {
					info.BindingPositive = false
				}
			case fo.BindMixed:
				info.BindingPositive = false
			}
		}
	case Not:
		classify(g.F, !polarity, info)
	case And:
		for _, c := range g.Conj {
			classify(c, polarity, info)
		}
	case Or:
		for _, d := range g.Disj {
			classify(d, polarity, info)
		}
	case Next:
		classify(g.F, polarity, info)
	case Until:
		info.OnlyNext = false
		classify(g.L, polarity, info)
		classify(g.R, polarity, info)
	case Prev:
		info.HasPast = true
		info.OnlyNext = false
		classify(g.F, polarity, info)
	case Since:
		info.HasPast = true
		info.OnlyNext = false
		classify(g.L, polarity, info)
		classify(g.R, polarity, info)
	}
}

// Fragment returns the smallest fragment of Table 1 the formula belongs to.
// Formulas with past operators or non-positive embedded sentences are
// outside every fragment; ok is false for them.
func (i Info) Fragment() (Fragment, bool) {
	if i.HasPast || !i.EmbeddedPositive {
		return FragFullNeq, false
	}
	if i.ZeroAcc {
		if i.OnlyNext {
			return FragXZeroAcc, true
		}
		if i.HasInequality {
			return FragZeroAccNeq, true
		}
		return FragZeroAcc, true
	}
	if i.BindingPositive && !i.HasInequality {
		return FragPlus, true
	}
	if i.HasInequality {
		return FragFullNeq, true
	}
	return FragFull, true
}

// CheckSentences validates every embedded formula is a sentence (no free
// variables); solvers call this up front.
func CheckSentences(f Formula) error { return checkSentences(Sentences(f)) }

// checkSentences is CheckSentences over f's distinct sentences.
func checkSentences(sentences []fo.Formula) error {
	for _, s := range sentences {
		if fv := fo.FreeVars(s); len(fv) != 0 {
			return fmt.Errorf("accltl: embedded formula %s has free variables %v", s, fv)
		}
	}
	return nil
}
