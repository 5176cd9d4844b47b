package fdqd

import "context"

// WaitIdle exposes waitIdle to the external tests: it returns once the
// server holds no open connection.
func WaitIdle(ctx context.Context, s *Server) error { return s.waitIdle(ctx) }
