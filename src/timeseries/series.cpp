#include "timeseries/series.hpp"

#include <algorithm>

namespace atm::ts {

Series Series::slice(std::size_t first, std::size_t count) const {
    if (first >= values_.size()) return Series(name_, {});
    const std::size_t last = std::min(values_.size(), first + count);
    return Series(name_, std::vector<double>(values_.begin() + static_cast<std::ptrdiff_t>(first),
                                             values_.begin() + static_cast<std::ptrdiff_t>(last)));
}

Series Series::scaled(double factor) const {
    std::vector<double> out(values_.size());
    std::transform(values_.begin(), values_.end(), out.begin(),
                   [factor](double v) { return v * factor; });
    return Series(name_, std::move(out));
}

}  // namespace atm::ts
