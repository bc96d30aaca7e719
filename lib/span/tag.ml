include Bftmetrics.Tag
