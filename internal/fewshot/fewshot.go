// Package fewshot implements the paper's few-shot-learning (FL)
// module: Model-Agnostic Meta-Learning (MAML) with its inner/outer
// optimisation loops (Eqs. 1–2 of the paper), N-way K-shot episode
// sampling, and the pretrained-model adaptation used to build the
// rain and snow models from the daytime model (Table V).
//
// The outer update uses the first-order MAML approximation (FOMAML):
// the query-loss gradient at the adapted parameters is applied to the
// meta parameters directly, omitting the second-derivative term. This
// is the standard practical simplification and preserves the
// behaviour the paper evaluates — fast adaptation from a handful of
// examples.
package fewshot

import (
	"fmt"
	"io"
	"math/rand"

	"safecross/internal/dataset"
	"safecross/internal/nn"
	"safecross/internal/video"
)

// Task is one meta-learning episode: adapt on Support, evaluate on
// Query.
type Task struct {
	Support []*dataset.Clip
	Query   []*dataset.Clip
}

// SampleTask draws a class-balanced N-way K-shot episode (N = the
// dataset's two classes) with kShot support and qQuery query clips
// per class from the pool.
func SampleTask(pool []*dataset.Clip, kShot, qQuery int, rng *rand.Rand) (Task, error) {
	if kShot <= 0 || qQuery < 0 {
		return Task{}, fmt.Errorf("fewshot: kShot=%d qQuery=%d invalid", kShot, qQuery)
	}
	byClass := make(map[int][]*dataset.Clip, dataset.NumClasses)
	for _, c := range pool {
		byClass[c.Label] = append(byClass[c.Label], c)
	}
	var task Task
	for label := 0; label < dataset.NumClasses; label++ {
		clips := byClass[label]
		need := kShot + qQuery
		if len(clips) < need {
			return Task{}, fmt.Errorf("fewshot: class %d has %d clips, need %d", label, len(clips), need)
		}
		perm := rng.Perm(len(clips))
		for i := 0; i < kShot; i++ {
			task.Support = append(task.Support, clips[perm[i]])
		}
		for i := kShot; i < need; i++ {
			task.Query = append(task.Query, clips[perm[i]])
		}
	}
	return task, nil
}

// Config controls MAML meta-training.
type Config struct {
	// InnerSteps is k, the number of inner-loop gradient updates.
	InnerSteps int
	// InnerLR is α, the inner-loop learning rate (Eq. 1).
	InnerLR float64
	// OuterLR is β, the meta learning rate (Eq. 2).
	OuterLR float64
	// MetaIters is the number of outer-loop iterations.
	MetaIters int
	// TasksPerIter is the number of episodes averaged per outer
	// update.
	TasksPerIter int
	// KShot and QQuery size each episode per class.
	KShot, QQuery int
	// Seed drives episode sampling.
	Seed int64
	// Log, when non-nil, receives one line per meta iteration.
	Log io.Writer
}

func (c Config) fill() Config {
	if c.InnerSteps == 0 {
		c.InnerSteps = 3
	}
	if c.InnerLR == 0 {
		c.InnerLR = 0.02
	}
	if c.OuterLR == 0 {
		c.OuterLR = 0.002
	}
	if c.MetaIters == 0 {
		c.MetaIters = 10
	}
	if c.TasksPerIter == 0 {
		c.TasksPerIter = 2
	}
	if c.KShot == 0 {
		c.KShot = 4
	}
	if c.QQuery == 0 {
		c.QQuery = 4
	}
	return c
}

// MAML holds the meta-initialisation θ and the machinery to adapt it.
type MAML struct {
	builder video.Builder
	meta    video.Classifier
}

// New creates a MAML learner whose meta parameters start at the
// builder's initialisation.
func New(builder video.Builder) (*MAML, error) {
	meta, err := builder()
	if err != nil {
		return nil, fmt.Errorf("fewshot: build meta model: %w", err)
	}
	return &MAML{builder: builder, meta: meta}, nil
}

// NewFromPretrained creates a MAML learner whose meta parameters are
// copied from an existing model (e.g. the trained daytime model).
func NewFromPretrained(builder video.Builder, pretrained video.Classifier) (*MAML, error) {
	m, err := New(builder)
	if err != nil {
		return nil, err
	}
	if err := nn.CopyParams(m.meta.Params(), pretrained.Params()); err != nil {
		return nil, fmt.Errorf("fewshot: copy pretrained weights: %w", err)
	}
	return m, nil
}

// Meta returns the classifier holding the current meta parameters.
func (m *MAML) Meta() video.Classifier { return m.meta }

// clone builds a fresh network with the meta parameters copied in.
func (m *MAML) clone() (video.Classifier, error) {
	c, err := m.builder()
	if err != nil {
		return nil, fmt.Errorf("fewshot: clone: %w", err)
	}
	if err := nn.CopyParams(c.Params(), m.meta.Params()); err != nil {
		return nil, fmt.Errorf("fewshot: clone weights: %w", err)
	}
	return c, nil
}

// innerAdapt runs k SGD steps on the support set (Eq. 1) against the
// given model in place.
func innerAdapt(model video.Classifier, support []*dataset.Clip, steps int, lr float64) error {
	params := model.Params()
	model.SetTrain(true)
	defer model.SetTrain(false)
	for s := 0; s < steps; s++ {
		nn.ZeroGrad(params)
		for _, clip := range support {
			if err := accumulateGrad(model, clip); err != nil {
				return err
			}
		}
		nn.ScaleGrads(params, 1/float64(len(support)))
		for _, p := range params {
			if err := p.Value.AddScaled(p.Grad, -lr); err != nil {
				return fmt.Errorf("fewshot: inner update %q: %w", p.Name, err)
			}
		}
	}
	return nil
}

// accumulateGrad adds one clip's loss gradient into the model's
// parameter gradients.
func accumulateGrad(model video.Classifier, clip *dataset.Clip) error {
	logits, err := model.Forward(clip.Input)
	if err != nil {
		return fmt.Errorf("fewshot: forward: %w", err)
	}
	_, dlogits, err := nn.SoftmaxCrossEntropy(logits, clip.Label)
	if err != nil {
		return fmt.Errorf("fewshot: loss: %w", err)
	}
	if err := model.Backward(dlogits); err != nil {
		return fmt.Errorf("fewshot: backward: %w", err)
	}
	return nil
}

// MetaTrain runs the outer loop over episodes sampled from pool,
// updating the meta initialisation so that a few inner steps suffice
// on new tasks.
func (m *MAML) MetaTrain(pool []*dataset.Clip, cfg Config) error {
	cfg = cfg.fill()
	rng := rand.New(rand.NewSource(cfg.Seed))
	metaParams := m.meta.Params()
	for iter := 0; iter < cfg.MetaIters; iter++ {
		nn.ZeroGrad(metaParams)
		totalQueryLoss := 0.0
		queryCount := 0
		for ti := 0; ti < cfg.TasksPerIter; ti++ {
			task, err := SampleTask(pool, cfg.KShot, cfg.QQuery, rng)
			if err != nil {
				return fmt.Errorf("fewshot: meta iter %d: %w", iter, err)
			}
			adapted, err := m.clone()
			if err != nil {
				return err
			}
			if err := innerAdapt(adapted, task.Support, cfg.InnerSteps, cfg.InnerLR); err != nil {
				return fmt.Errorf("fewshot: meta iter %d inner loop: %w", iter, err)
			}
			// Query gradient at the adapted parameters (Eq. 2,
			// first-order approximation).
			adaptedParams := adapted.Params()
			nn.ZeroGrad(adaptedParams)
			adapted.SetTrain(true)
			for _, clip := range task.Query {
				logits, err := adapted.Forward(clip.Input)
				if err != nil {
					return fmt.Errorf("fewshot: query forward: %w", err)
				}
				loss, dlogits, err := nn.SoftmaxCrossEntropy(logits, clip.Label)
				if err != nil {
					return fmt.Errorf("fewshot: query loss: %w", err)
				}
				totalQueryLoss += loss
				queryCount++
				if err := adapted.Backward(dlogits); err != nil {
					return fmt.Errorf("fewshot: query backward: %w", err)
				}
			}
			adapted.SetTrain(false)
			scale := 1 / float64(len(task.Query))
			for i, p := range metaParams {
				if err := p.Grad.AddScaled(adaptedParams[i].Grad, scale); err != nil {
					return fmt.Errorf("fewshot: meta grad %q: %w", p.Name, err)
				}
			}
		}
		nn.ScaleGrads(metaParams, 1/float64(cfg.TasksPerIter))
		nn.ClipGradNorm(metaParams, 5)
		for _, p := range metaParams {
			if err := p.Value.AddScaled(p.Grad, -cfg.OuterLR); err != nil {
				return fmt.Errorf("fewshot: meta update %q: %w", p.Name, err)
			}
		}
		if cfg.Log != nil && queryCount > 0 {
			fmt.Fprintf(cfg.Log, "maml iter %d/%d query loss %.4f\n",
				iter+1, cfg.MetaIters, totalQueryLoss/float64(queryCount))
		}
	}
	return nil
}

// Adapt produces a task-specific model: a clone of the meta
// parameters fine-tuned on the support set with the inner-loop rule.
// This is the runtime path SafeCross uses to build the rain and snow
// models from the daytime initialisation.
func (m *MAML) Adapt(support []*dataset.Clip, steps int, lr float64) (video.Classifier, error) {
	if len(support) == 0 {
		return nil, fmt.Errorf("fewshot: empty support set")
	}
	if steps <= 0 || lr <= 0 {
		return nil, fmt.Errorf("fewshot: steps=%d lr=%v invalid", steps, lr)
	}
	adapted, err := m.clone()
	if err != nil {
		return nil, err
	}
	if err := innerAdapt(adapted, support, steps, lr); err != nil {
		return nil, err
	}
	return adapted, nil
}

// EvalTask runs one full episode: adapt a clone of the meta
// parameters on the support set (Eq. 1, train-mode forwards,
// untouched by the engine), then score the adapted model on the query
// set through the unified batch engine — the eval forwards ride
// infer workspaces via video.Evaluate, so a caller evaluating many
// episodes with one workspace pays no per-episode eval allocation.
// It returns the adapted classifier and its query confusion matrix. A
// nil ws is replaced by a throwaway workspace.
func (m *MAML) EvalTask(task Task, steps int, lr float64, ws *nn.Workspace) (video.Classifier, *nn.ConfusionMatrix, error) {
	adapted, err := m.Adapt(task.Support, steps, lr)
	if err != nil {
		return nil, nil, err
	}
	cm, err := video.Evaluate(adapted, task.Query, ws)
	if err != nil {
		return nil, nil, fmt.Errorf("fewshot: query eval: %w", err)
	}
	return adapted, cm, nil
}

// AdaptFromPretrained fine-tunes a copy of a pretrained model on a
// small support set with the MAML inner-loop rule (full-batch SGD) —
// the fast runtime adaptation path.
func AdaptFromPretrained(builder video.Builder, pretrained video.Classifier, support []*dataset.Clip, steps int, lr float64) (video.Classifier, error) {
	m, err := NewFromPretrained(builder, pretrained)
	if err != nil {
		return nil, err
	}
	return m.Adapt(support, steps, lr)
}

// FineTune clones the pretrained model and trains it on the support
// set with the full training loop — the "with few-shot learning" arm
// of the paper's Table V ablation, where the daytime model seeds the
// rain and snow models and the advantage comes from the
// initialisation.
func FineTune(builder video.Builder, pretrained video.Classifier, support []*dataset.Clip, cfg video.TrainConfig) (video.Classifier, error) {
	if len(support) == 0 {
		return nil, fmt.Errorf("fewshot: empty support set")
	}
	m, err := NewFromPretrained(builder, pretrained)
	if err != nil {
		return nil, err
	}
	adapted, err := m.clone()
	if err != nil {
		return nil, err
	}
	if _, err := video.Train(adapted, support, cfg); err != nil {
		return nil, fmt.Errorf("fewshot: fine-tune: %w", err)
	}
	return adapted, nil
}
