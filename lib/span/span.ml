include Bftmetrics.Span
