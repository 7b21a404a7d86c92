package cluster

import (
	"context"
	"errors"
	"net/http"
	"time"

	"refocus/internal/serve"
	"refocus/internal/serveclient"
)

// jobTier mounts campaigns and searches on the coordinator. The jobs
// themselves run in the coordinator process; each evaluation is encoded
// as the evaluate request a plain client would send for its point and
// dispatched by its route key — a campaign's trial seed, a search
// candidate's config hash — riding the same hedged client chain
// (retries, breaker, dead-shard failover) ordinary points use, so a
// revisited candidate lands on the shard already caching its report. A
// shed evaluation (the whole chain answering 429) waits a second and is
// dispatched again.
func (c *Coordinator) jobTier() *serve.JobTier {
	return &serve.JobTier{
		Name:       "cluster",
		DecodeBody: c.decodeBody,
		WriteJSON:  c.writeJSON,
		WriteError: c.writeError,
		StreamLine: c.metrics.stream.Inc,
		Evaluate: func(ctx context.Context, p serve.JobPoint, routeKey string) (serve.EvaluateResponse, error) {
			var resp serve.EvaluateResponse
			req, err := p.Request()
			if err != nil {
				return resp, err
			}
			body, err := c.dispatchKeyed(ctx, req, routeKey)
			if err == nil {
				err = decodeShardBody(body, &resp)
			}
			return resp, err
		},
		Shed: func(err error) (time.Duration, bool) {
			var se *serveclient.StatusError
			return time.Second, errors.As(err, &se) && se.Status == http.StatusTooManyRequests
		},
	}
}
